#include "replay.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <variant>

#include "join/result_range.h"
#include "oracle.h"
#include "raster/hierarchical_raster.h"
#include "service/approx_cache.h"
#include "service/shard_server.h"
#include "service/socket_transport.h"
#include "service/transport.h"

namespace perfbench {

namespace core = dbsa::core;
namespace geom = dbsa::geom;
namespace join = dbsa::join;
namespace raster = dbsa::raster;
namespace service = dbsa::service;

namespace {

enum class Layer : uint8_t { kReplay, kCache, kRaster, kIndex, kRouter, kCarrier, kServer };
constexpr size_t kNumLayers = 7;

const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {"replay", "cache",   "raster", "index",
                                                 "router", "carrier", "server"};
  return kNames[static_cast<size_t>(layer)];
}

struct Span {
  uint32_t query = 0;  ///< Replay position; shared by all spans of a request.
  Layer layer = Layer::kReplay;
  int32_t parent = -1;  ///< Index of the causing span, -1 for a root.
  double start_us = 0.0;
  double end_us = 0.0;
  uint64_t corr = 0;  ///< carrier / server: wire correlation id.
  uint32_t shard = 0;
};

/// The replay's spans, recorded on the replaying thread.
class SpanLog {
 public:
  void BeginQuery(uint32_t query) { query_ = query; }
  int32_t Open(Layer layer) {
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{query_, layer, parent, NowUs(), 0.0, 0, 0});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void Close() {
    spans_[static_cast<size_t>(stack_.back())].end_us = NowUs();
    stack_.pop_back();
  }
  int32_t Add(const Span& span) {
    spans_.push_back(span);
    spans_.back().query = query_;
    return static_cast<int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t query_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer) : log_(log), index_(log->Open(layer)) {}
  ~ScopedSpan() { log_->Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  int32_t index_;
};

/// ShardServer::Handle calls, recorded by the cluster's listener threads.
class ServerRecorder {
 public:
  struct Call {
    uint32_t shard = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  void Add(uint32_t shard, uint64_t corr, double start_us, double end_us) {
    std::lock_guard<std::mutex> lock(mu_);
    calls_[corr] = Call{shard, start_us, end_us};
  }
  bool Take(uint64_t corr, Call* out) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = calls_.find(corr);
    if (it == calls_.end()) return false;
    *out = it->second;
    calls_.erase(it);
    return true;
  }
  std::atomic<bool> armed{false};

 private:
  std::mutex mu_;
  std::unordered_map<uint64_t, Call> calls_;
};

/// A Transport that times every Send to its completion and keeps copies
/// of the frames. Sends come from the replaying thread (the replay sets
/// no parallel_for, so the router issues serially); completions arrive
/// on the socket demux threads, and the router waits for all of them
/// before returning, so TakeCalls() after a request sees them complete.
class TimingTransport : public service::Transport {
 public:
  struct Call {
    uint32_t shard = 0;
    uint64_t corr = 0;
    std::string request;
    std::string reply;
    double start_us = 0.0;
    double end_us = 0.0;
    double capture_us = 0.0;  ///< Copying the reply (the replay's own cost).
  };

  explicit TimingTransport(std::shared_ptr<service::Transport> inner)
      : inner_(std::move(inner)) {}
  size_t num_shards() const override { return inner_->num_shards(); }
  double CostPerMessage() const override { return inner_->CostPerMessage(); }

  uint64_t Send(size_t shard, std::string request, Done done) override {
    calls_.push_back(std::make_unique<Call>());
    Call* call = calls_.back().get();
    call->shard = static_cast<uint32_t>(shard);
    call->request = request;
    call->start_us = NowUs();
    call->corr = inner_->Send(
        shard, std::move(request),
        [call, done = std::move(done)](dbsa::StatusOr<std::string> reply) {
          call->end_us = NowUs();
          if (reply.ok()) call->reply = reply.value();
          call->capture_us = NowUs() - call->end_us;
          done(std::move(reply));
        });
    return call->corr;
  }

  std::vector<std::unique_ptr<Call>> TakeCalls() { return std::move(calls_); }

 private:
  std::shared_ptr<service::Transport> inner_;
  std::vector<std::unique_ptr<Call>> calls_;
};

/// Per-layer totals over the replayed prefix (plus, for the raster
/// layer, over every build of the traced run).
struct Tallies {
  size_t queries = 0;
  size_t lookups = 0, hits = 0, misses = 0;
  size_t builds_all = 0, build_cells_all = 0, builds_prefix = 0;
  double index_ms = 0.0;
  size_t index_cells = 0, searched_cells = 0, searches = 0;
  double route_ms = 0.0;
  size_t surviving = 0;
  double router_split_ms = 0.0;  ///< Route + client codec + capture re-runs.
  double encode_us = 0.0, decode_us = 0.0;
  size_t wire_bytes = 0, messages = 0, resends = 0;
};

double ElapsedUs(double since) { return NowUs() - since; }

class Replayer {
 public:
  /// Pooled workloads: `router` is null and the probe runs on `base`.
  Replayer(const Inputs& inputs, const core::EngineState& base,
           service::ShardRouter* router, TimingTransport* timing,
           ServerRecorder* servers)
      : inputs_(inputs),
        base_(base),
        router_(router),
        timing_(timing),
        servers_(servers),
        cache_(inputs.cache_budget_bytes) {}

  /// Replays one request; returns its payload digest.
  uint64_t Replay(uint32_t id, bool prefix) {
    const Request& r = inputs_.distinct[id];
    const uint32_t position = static_cast<uint32_t>(roots_.size());
    log_.BeginQuery(position);
    prefix_ = prefix;
    hrs_.clear();
    uint64_t digest = 0;
    int32_t router_span = -1;
    {
      ScopedSpan root(&log_, Layer::kReplay);
      roots_.push_back(root.index());
      in_prefix_.push_back(prefix);
      if (router_ != nullptr) {
        ScopedSpan router(&log_, Layer::kRouter);
        router_span = router.index();
        digest = ReplayRouted(r);
      } else {
        digest = ReplayPooled(r);
      }
    }
    if (router_ != nullptr) AttachWire(router_span, r.query.kind());
    if (prefix) ++t_.queries;
    return digest;
  }

  const SpanLog& log() const { return log_; }
  const std::vector<int32_t>& roots() const { return roots_; }
  const std::vector<bool>& in_prefix() const { return in_prefix_; }
  const Tallies& tallies() const { return t_; }
  service::ApproxCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  /// The service's HR provider, through this replay's own cache.
  service::ApproxCache::HrPtr Lookup(size_t poly_index, const geom::Polygon& poly,
                                     double epsilon) {
    ScopedSpan span(&log_, Layer::kCache);
    const int level = base_.grid.LevelForEpsilon(epsilon);
    const bool ad_hoc = poly_index == core::kAdHocPolygon;
    const service::ObjectKey key = ad_hoc ? service::PolygonFingerprint(poly)
                                          : service::ObjectKey(poly_index);
    bool built = false;
    service::ApproxCache::HrPtr hr = cache_.GetOrBuild(
        key, level,
        [&]() {
          ScopedSpan build(&log_, Layer::kRaster);
          raster::HierarchicalRaster out =
              raster::HierarchicalRaster::BuildLevel(poly, base_.grid, level);
          ++t_.builds_all;
          t_.build_cells_all += out.cells().size();
          if (prefix_) ++t_.builds_prefix;
          return out;
        },
        &built, ad_hoc ? &poly : nullptr);
    if (prefix_ && ad_hoc) {
      ++t_.lookups;
      ++(built ? t_.misses : t_.hits);
    }
    hrs_.push_back(hr);
    return hr;
  }

  void CountProbe(const join::CellAggregate& agg) {
    if (!prefix_) return;
    t_.index_cells += agg.query_cells;
    t_.searched_cells += agg.query_cells;
    t_.searches += agg.searches;
  }

  uint64_t ReplayPooled(const Request& r) {
    const double eps = r.options.bound.EffectiveEpsilon(base_.grid);
    const join::SearchStrategy strategy = join::SearchStrategy::kRadixSpline;
    switch (r.query.kind()) {
      case service::QueryKind::kCount: {
        const auto& spec = std::get<service::CountSpec>(r.query.spec());
        const auto hr = Lookup(core::kAdHocPolygon, spec.poly, eps);
        join::CellAggregate agg;
        {
          ScopedSpan probe(&log_, Layer::kIndex);
          agg = base_.point_index->QueryCells(*hr, strategy);
        }
        CountProbe(agg);
        return Digest(join::CountRange(agg));
      }
      case service::QueryKind::kSelect: {
        const auto& spec = std::get<service::SelectSpec>(r.query.spec());
        const auto hr = Lookup(core::kAdHocPolygon, spec.poly, eps);
        std::vector<uint32_t> ids;
        {
          ScopedSpan probe(&log_, Layer::kIndex);
          base_.point_index->SelectIds(*hr, strategy, &ids);
        }
        if (prefix_) t_.index_cells += hr->cells().size();
        return Digest(ids);
      }
      case service::QueryKind::kAggregate: {
        // The point-index plan of core::ExecuteAggregate, one polygon at a
        // time: HR through the cache, probe, then the serial combine.
        const auto& spec = std::get<service::AggregateSpec>(r.query.spec());
        const std::vector<geom::Polygon>& polys = base_.regions->polys;
        std::vector<join::CellAggregate> per_region(base_.regions->num_regions);
        for (size_t j = 0; j < polys.size(); ++j) {
          const auto hr = Lookup(j, polys[j], eps);
          join::CellAggregate agg;
          {
            ScopedSpan probe(&log_, Layer::kIndex);
            agg = base_.point_index->QueryCells(*hr, strategy);
          }
          CountProbe(agg);
          per_region[base_.regions->region_of[j]].Merge(agg);
        }
        std::vector<core::AggregateRow> rows;
        core::RowsFromRegionAggregates(per_region, spec.agg, &rows);
        return Digest(rows);
      }
    }
    return 0;
  }

  uint64_t ReplayRouted(const Request& r) {
    core::ExecHooks hooks;
    hooks.hr_provider = [this](size_t i, const geom::Polygon& p, double e) {
      return Lookup(i, p, e);
    };
    switch (r.query.kind()) {
      case service::QueryKind::kCount: {
        const auto& spec = std::get<service::CountSpec>(r.query.spec());
        return Digest(service::ExecuteCount(*router_, spec.poly, r.options.bound, hooks).range);
      }
      case service::QueryKind::kSelect: {
        const auto& spec = std::get<service::SelectSpec>(r.query.spec());
        return Digest(service::ExecuteSelect(*router_, spec.poly, r.options.bound, hooks).ids);
      }
      case service::QueryKind::kAggregate: {
        const auto& spec = std::get<service::AggregateSpec>(r.query.spec());
        return Digest(service::ExecuteAggregate(*router_, spec.agg, spec.attr,
                                                r.options.bound, r.options.mode, hooks)
                          .rows);
      }
    }
    return 0;
  }

  /// Carrier and server spans of the request just routed, then the
  /// re-runs that split the router's and the servers' time: route, the
  /// shard-side probe, and the codecs on the captured frames.
  void AttachWire(int32_t router_span, service::QueryKind kind) {
    std::vector<std::unique_ptr<TimingTransport::Call>> calls = timing_->TakeCalls();
    double split_us = 0.0;
    for (const auto& call : calls) {
      Span carrier;
      carrier.layer = Layer::kCarrier;
      carrier.parent = router_span;
      carrier.start_us = call->start_us;
      carrier.end_us = call->end_us;
      carrier.corr = call->corr;
      carrier.shard = call->shard;
      const int32_t carrier_index = log_.Add(carrier);
      ServerRecorder::Call handled;
      if (servers_->Take(call->corr, &handled)) {
        Span server = carrier;
        server.layer = Layer::kServer;
        server.parent = carrier_index;
        server.start_us = handled.start_us;
        server.end_us = handled.end_us;
        log_.Add(server);
      }
      split_us += call->capture_us;
    }
    if (!prefix_) return;

    const core::ShardedState& sharded = router_->sharded();
    const join::SearchStrategy strategy = join::SearchStrategy::kRadixSpline;
    for (const service::ApproxCache::HrPtr& hr : hrs_) {
      const raster::HrCell* cells = hr->cells().data();
      const size_t n = hr->cells().size();
      double t0 = NowUs();
      const std::vector<core::ShardedState::CellRoute> routes = sharded.MakeRoutes(cells, n);
      const std::vector<uint32_t> surviving = sharded.SurvivingShards(routes.data(), n);
      const double route_us = ElapsedUs(t0);
      t_.route_ms += route_us / 1e3;
      split_us += route_us;
      t_.surviving += surviving.size();
      for (const uint32_t s : surviving) {
        const std::vector<raster::HrCell> slice =
            sharded.PruneCellsForShard(s, cells, routes.data(), n);
        const core::EngineState* shard = sharded.shard(s).state.get();
        if (shard == nullptr || !shard->point_index.has_value() || slice.empty()) continue;
        t_.index_cells += slice.size();
        if (kind == service::QueryKind::kSelect) {
          std::vector<uint32_t> ids;
          t0 = NowUs();
          shard->point_index->SelectIds(slice.data(), slice.size(), strategy, &ids);
          t_.index_ms += ElapsedUs(t0) / 1e3;
        } else {
          t0 = NowUs();
          const join::CellAggregate agg =
              shard->point_index->QueryCells(slice.data(), slice.size(), strategy);
          t_.index_ms += ElapsedUs(t0) / 1e3;
          t_.searched_cells += agg.query_cells;
          t_.searches += agg.searches;
        }
      }
    }
    for (const auto& call : calls) {
      service::ScatterRequest request;
      double t0 = NowUs();
      const bool request_ok = service::ScatterRequest::Decode(call->request, &request).ok();
      t_.decode_us += ElapsedUs(t0);  // Server side.
      t0 = NowUs();
      const std::string encoded = request.Encode();
      const double request_encode_us = ElapsedUs(t0);  // Client side.
      service::GatherPartial partial;
      t0 = NowUs();
      const bool reply_ok = service::GatherPartial::Decode(call->reply, &partial).ok();
      const double reply_decode_us = ElapsedUs(t0);  // Client side.
      t0 = NowUs();
      const std::string reply = partial.Encode();
      t_.encode_us += ElapsedUs(t0) + request_encode_us;  // Server + client.
      t_.decode_us += reply_decode_us;
      split_us += request_encode_us + reply_decode_us;
      (void)encoded;
      (void)reply;
      if (request_ok && reply_ok &&
          partial.status == service::GatherPartial::Disposition::kNotCached) {
        ++t_.resends;
      }
      t_.wire_bytes += call->request.size() + call->reply.size();
      ++t_.messages;
    }
    t_.router_split_ms += split_us / 1e3;
  }

  const Inputs& inputs_;
  const core::EngineState& base_;
  service::ShardRouter* router_;
  TimingTransport* timing_;
  ServerRecorder* servers_;
  service::ApproxCache cache_;
  SpanLog log_;
  Tallies t_;
  bool prefix_ = false;
  std::vector<service::ApproxCache::HrPtr> hrs_;  ///< HRs of the current request.
  std::vector<int32_t> roots_;
  std::vector<bool> in_prefix_;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to it).
std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[static_cast<size_t>(s.parent)].push_back({s.start_us, s.end_us});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>>& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo0, hi0] : c) {
      const double lo = std::max(lo0, s.start_us);
      const double hi = std::min(hi0, s.end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (s.end_us - s.start_us) - covered;
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<bool>& in_prefix) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span\tquery\tprefix\tlayer\tparent\tstart_us\tend_us\tshard\tcorr\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%u\t%d\t%s\t%d\t%.3f\t%.3f\t%u\t%llu\n", i, s.query,
                 in_prefix[s.query] ? 1 : 0, LayerName(s.layer), s.parent, s.start_us,
                 s.end_us, s.shard, static_cast<unsigned long long>(s.corr));
  }
  return std::fclose(f) == 0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

RunReport RunTraced(const Inputs& inputs, const Scale& scale,
                    const std::string& spans_out) {
  RunReport report;
  const bool cluster = IsCluster(inputs.workload);
  auto recorder = std::make_shared<ServerRecorder>();
  HandlerWrap wrap;
  if (cluster) {
    wrap = [recorder](size_t shard, service::ShardListener::Handler inner) {
      return [recorder, shard, inner](const std::string& request) {
        if (!recorder->armed.load(std::memory_order_relaxed)) return inner(request);
        const double start = NowUs();
        std::string reply = inner(request);
        recorder->Add(static_cast<uint32_t>(shard), service::PeekCorrelation(request),
                      start, NowUs());
        return reply;
      };
    };
  }

  std::vector<double> dataset_ms, build_ms, load_ms, warm_ms;
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < scale.setup_reps; ++rep) {
    dep.reset();
    dep = SetUp(inputs, scale, wrap);
    if (!dep->setup_error.empty()) {
      report.errors.push_back(dep->setup_error);
      report.attempted = 1;
      return report;
    }
    dataset_ms.push_back(dep->times.dataset_ms);
    build_ms.push_back(dep->times.engine_build_ms);
    load_ms.push_back(dep->times.snapshot_load_ms);
    warm_ms.push_back(dep->times.warm_ms);
  }
  const std::vector<Expected> expected = BuildOracle(*dep->reference, inputs, kClients);

  // The service side of each request, one client, tracing off: the
  // reference for byte-identity and the end-to-end time per request.
  const std::vector<uint32_t>& prefix = inputs.trace_sequence;
  std::vector<double> service_ms(prefix.size());
  std::vector<uint64_t> service_digest(prefix.size());
  std::vector<size_t> service_misses(prefix.size());
  for (size_t k = 0; k < prefix.size(); ++k) {
    const Request& r = inputs.distinct[prefix[k]];
    const double t0 = NowUs();
    const service::Result result = dep->service->Execute(r.query, r.options).get();
    service_ms[k] = ElapsedUs(t0) / 1e3;
    service_digest[k] = Digest(result);
    service_misses[k] = result.bound.hr_cache_misses;
    if (!result.ok() || service_digest[k] != expected[prefix[k]].digest ||
        !expected[prefix[k]].error.empty()) {
      ++report.failed;
    }
  }
  // The client goes before the replay opens its own connections.
  dep->service.reset();

  const core::EngineState& base = cluster ? dep->sharded->base() : *dep->reference;
  std::shared_ptr<TimingTransport> timing;
  std::unique_ptr<service::ShardRouter> router;
  if (cluster) {
    timing = std::make_shared<TimingTransport>(
        std::make_shared<service::SocketTransport>(dep->cluster->placement));
    router = std::make_unique<service::ShardRouter>(dep->sharded, timing);
    router->set_epoch(kEpoch);
  }
  Replayer replayer(inputs, base, router.get(), timing.get(), recorder.get());
  recorder->armed.store(true);
  for (const uint32_t id : inputs.warm_sequence) replayer.Replay(id, false);
  const service::ApproxCache::Stats cache_before = replayer.cache_stats();
  const ShardCacheTotals shards_before =
      cluster ? SumShardCaches(*dep->cluster) : ShardCacheTotals{};
  size_t mismatches = 0;
  std::vector<int32_t> prefix_roots;
  for (size_t k = 0; k < prefix.size(); ++k) {
    if (replayer.Replay(prefix[k], true) != service_digest[k]) ++mismatches;
    prefix_roots.push_back(replayer.roots().back());
  }
  recorder->armed.store(false);
  const service::ApproxCache::Stats cache_after = replayer.cache_stats();
  const ShardCacheTotals shards_after =
      cluster ? SumShardCaches(*dep->cluster) : ShardCacheTotals{};
  report.attempted = prefix.size();
  report.failed += mismatches;
  if (mismatches != 0) {
    report.errors.push_back(std::to_string(mismatches) +
                            " replayed answers differ from the service's");
  }

  // Per-layer totals over the prefix.
  const std::vector<Span>& spans = replayer.log().spans();
  const std::vector<bool>& in_prefix = replayer.in_prefix();
  const std::vector<double> self_us = SelfTimesUs(spans);
  double self_sum[kNumLayers] = {};
  double dur_sum[kNumLayers] = {};
  size_t count[kNumLayers] = {};
  double raster_all_us = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.layer == Layer::kRaster) raster_all_us += s.end_us - s.start_us;
    if (!in_prefix[s.query]) continue;
    const size_t l = static_cast<size_t>(s.layer);
    self_sum[l] += self_us[i];
    dur_sum[l] += s.end_us - s.start_us;
    ++count[l];
  }
  auto sum = [&](Layer l) { return self_sum[static_cast<size_t>(l)]; };
  auto dur = [&](Layer l) { return dur_sum[static_cast<size_t>(l)]; };
  auto cnt = [&](Layer l) { return static_cast<double>(count[static_cast<size_t>(l)]); };

  double service_self_ms = 0.0;
  size_t paired = 0;
  for (size_t k = 0; k < prefix.size(); ++k) {
    const Request& r = inputs.distinct[prefix[k]];
    if (r.query.kind() != service::QueryKind::kCount) continue;
    const size_t root = static_cast<size_t>(prefix_roots[k]);
    // Pair only requests whose cache outcome matched on both sides.
    bool replay_built = false;
    for (size_t i = root + 1; i < spans.size() && spans[i].query == spans[root].query; ++i) {
      replay_built = replay_built || spans[i].layer == Layer::kRaster;
    }
    if (replay_built != (service_misses[k] != 0)) continue;
    service_self_ms += service_ms[k] - (spans[root].end_us - spans[root].start_us) / 1e3;
    ++paired;
  }

  const Tallies& t = replayer.tallies();
  const double q = static_cast<double>(std::max<size_t>(t.queries, 1));
  const double msgs = static_cast<double>(t.messages);
  report.Add("service.self_ms", Ratio(service_self_ms, static_cast<double>(paired)), "ms",
             paired);
  report.Add("cache.hit_ratio",
             Ratio(static_cast<double>(t.hits), static_cast<double>(t.hits + t.misses)),
             "fraction", t.lookups);
  report.Add("cache.evictions_per_query",
             static_cast<double>(cache_after.evictions - cache_before.evictions) / q,
             "count", t.queries);
  report.Add("cache.lookup_us", Ratio(sum(Layer::kCache), cnt(Layer::kCache)), "us",
             count[static_cast<size_t>(Layer::kCache)]);
  report.Add("raster.build_ms", Ratio(raster_all_us / 1e3, static_cast<double>(t.builds_all)),
             "ms", t.builds_all);
  report.Add("raster.builds_per_query", static_cast<double>(t.builds_prefix) / q, "count",
             t.queries);
  report.Add("raster.cells_per_build",
             Ratio(static_cast<double>(t.build_cells_all), static_cast<double>(t.builds_all)),
             "count", t.builds_all);
  report.Add("index.probe_ms", (cluster ? t.index_ms : sum(Layer::kIndex) / 1e3) / q, "ms",
             t.queries);
  report.Add("index.cells_per_query", static_cast<double>(t.index_cells) / q, "count",
             t.queries);
  report.Add("index.searches_per_cell",
             Ratio(static_cast<double>(t.searches), static_cast<double>(t.searched_cells)),
             "count", t.searched_cells);
  report.Add("route.ms", t.route_ms / q, "ms", t.queries);
  report.Add("route.shards_per_query", static_cast<double>(t.surviving) / q, "count",
             t.queries);
  report.Add("router.self_ms", cluster ? (sum(Layer::kRouter) / 1e3 - t.router_split_ms) / q : 0.0,
             "ms", t.queries);
  report.Add("wire.encode_us", t.encode_us / q, "us", t.queries);
  report.Add("wire.decode_us", t.decode_us / q, "us", t.queries);
  report.Add("wire.bytes_per_query", static_cast<double>(t.wire_bytes) / q, "bytes",
             t.queries);
  report.Add("carrier.rtt_ms", Ratio(dur(Layer::kCarrier) / 1e3, msgs), "ms", t.messages);
  report.Add("carrier.net_ms", Ratio(sum(Layer::kCarrier) / 1e3, msgs), "ms", t.messages);
  report.Add("carrier.messages_per_query", msgs / q, "count", t.queries);
  report.Add("carrier.resends_per_query", static_cast<double>(t.resends) / q, "count",
             t.queries);
  report.Add("server.handle_ms", Ratio(dur(Layer::kServer) / 1e3, cnt(Layer::kServer)), "ms",
             count[static_cast<size_t>(Layer::kServer)]);
  const double shard_hits = static_cast<double>(shards_after.hits - shards_before.hits);
  const double shard_misses = static_cast<double>(shards_after.misses - shards_before.misses);
  report.Add("server.cache_hit_ratio", Ratio(shard_hits, shard_hits + shard_misses),
             "fraction", static_cast<size_t>(shard_hits + shard_misses));
  report.Add("snapshot.load_ms", Median(load_ms), "ms", load_ms.size());
  report.Add("setup.dataset_ms", Median(dataset_ms), "ms", dataset_ms.size());
  report.Add("setup.engine_build_ms", Median(build_ms), "ms", build_ms.size());
  report.Add("setup.warm_ms", Median(warm_ms), "ms", warm_ms.size());
  report.Add("trace.unaccounted_share", Ratio(sum(Layer::kReplay), dur(Layer::kReplay)),
             "fraction", t.queries);

  if (cluster && count[static_cast<size_t>(Layer::kServer)] != t.messages) {
    report.errors.push_back("server spans matched " +
                            std::to_string(count[static_cast<size_t>(Layer::kServer)]) +
                            " of " + std::to_string(t.messages) + " messages");
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "replayed %zu warm-up + %zu prefix requests, %zu spans; replay time "
                "%.1f ms over the prefix",
                inputs.warm_sequence.size(), prefix.size(), spans.size(),
                dur(Layer::kReplay) / 1e3);
  report.notes.push_back(buf);
  if (!spans_out.empty()) {
    if (WriteSpans(spans_out, spans, in_prefix)) {
      report.notes.push_back("spans written to " + spans_out);
    } else {
      report.notes.push_back("could not write spans to " + spans_out);
    }
  }
  return report;
}

}  // namespace perfbench
