#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "data/regions.h"
#include "data/taxi.h"
#include "snapshot/snapshot.h"
#include "util/timer.h"

namespace perfbench {

using dbsa::Timer;
namespace core = dbsa::core;
namespace geom = dbsa::geom;
namespace service = dbsa::service;

namespace {

/// SplitMix64: the benchmark's own generator, so the inputs of a seed do
/// not change when the library's random utilities do.
class SeedRng {
 public:
  SeedRng(uint64_t seed, uint64_t stream)
      : state_(seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Random-stream identifiers: each use of the seed draws from its own.
enum Stream : uint64_t { kViewports = 1, kRanks = 2, kClient = 16, kWarm = 32 };

constexpr double kDashboardEps[] = {4.0, 16.0, 64.0};
constexpr size_t kNumEps = 3;
/// Region aggregates of adhoc_churn serve the overview bound only.
constexpr double kAdhocAggregateEps = 64.0;
/// Every block of 32 consecutive requests of a client holds exactly one
/// region aggregate and four SELECTs; the rest are COUNTs.
constexpr size_t kBlock = 32;
constexpr size_t kSelectsPerBlock = 4;
constexpr int kScreenPixels = 1024;

template <typename T>
void Shuffle(std::vector<T>* v, SeedRng* rng) {
  for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
}

/// Square viewports in `classes` size classes of equal count, each class
/// spread evenly over the city: class c stratifies its sides over its
/// share of [2%, 30%] of the universe side and places one viewport in each
/// cell of a k x k grid, jittered. Every seed thus covers the hotspots
/// with every size, which keeps the work per request steady across seeds.
/// Class-major order: viewport c * (n / classes) + j is in class c.
std::vector<geom::Box> MakeViewports(const geom::Box& universe, size_t n, size_t classes,
                                     SeedRng* rng) {
  const size_t per_class = n / classes;
  const size_t k = static_cast<size_t>(std::lround(std::sqrt(static_cast<double>(per_class))));
  if (k * k * classes != n) {
    std::fprintf(stderr, "perfbench: %zu viewports do not tile %zu classes\n", n, classes);
    std::abort();
  }
  const double side_u = universe.Width();
  std::vector<geom::Box> out;
  out.reserve(n);
  for (size_t c = 0; c < classes; ++c) {
    std::vector<size_t> strata(per_class);
    for (size_t j = 0; j < per_class; ++j) strata[j] = j;
    Shuffle(&strata, rng);
    for (size_t cell = 0; cell < per_class; ++cell) {
      const double frac =
          0.02 + 0.28 *
                     (static_cast<double>(c) +
                      (static_cast<double>(strata[cell]) + rng->Uniform()) /
                          static_cast<double>(per_class)) /
                     static_cast<double>(classes);
      const double side = frac * side_u;
      const double cell_side = side_u / static_cast<double>(k);
      const double cx = universe.min.x + (static_cast<double>(cell % k) + rng->Uniform()) * cell_side;
      const double cy = universe.min.y + (static_cast<double>(cell / k) + rng->Uniform()) * cell_side;
      const double x0 = std::clamp(cx - side / 2, universe.min.x, universe.max.x - side);
      const double y0 = std::clamp(cy - side / 2, universe.min.y, universe.max.y - side);
      out.emplace_back(x0, y0, x0 + side, y0 + side);
    }
  }
  return out;
}

size_t SizeClasses(size_t viewports) { return viewports >= 2048 ? 8 : 4; }

Request MakeViewportRequest(const geom::Box& box, int viewport, bool select,
                            double eps) {
  Request r;
  r.query = select ? service::Query::Select(BoxPolygon(box))
                   : service::Query::Count(BoxPolygon(box));
  r.options.bound = dbsa::query::ErrorBound::Absolute(eps);
  r.viewport = viewport;
  return r;
}

Request MakeAggregateRequest(size_t which, double eps) {
  Request r;
  r.query = which == 0
                ? service::Query::Aggregate(dbsa::join::AggKind::kCount)
                : service::Query::Aggregate(dbsa::join::AggKind::kSum, core::Attr::kFare);
  r.options.bound = dbsa::query::ErrorBound::Absolute(eps);
  r.options.mode = core::Mode::kPointIndex;
  return r;
}

/// Endless walk over a set of request ids, one seeded permutation after
/// another: every id comes up equally often.
class Cycle {
 public:
  Cycle(uint32_t first, size_t count, SeedRng* rng) : ids_(count), rng_(rng) {
    for (size_t i = 0; i < count; ++i) ids_[i] = first + static_cast<uint32_t>(i);
    pos_ = count;
  }
  uint32_t Next() {
    if (pos_ == ids_.size()) {
      Shuffle(&ids_, rng_);
      pos_ = 0;
    }
    return ids_[pos_++];
  }

 private:
  std::vector<uint32_t> ids_;
  SeedRng* rng_;
  size_t pos_;
};

enum class Slot : uint8_t { kCount, kSelect, kAggregate };

/// The kinds of one block of kBlock requests, in random order.
std::vector<Slot> BlockSlots(SeedRng* rng) {
  std::vector<Slot> slots(kBlock, Slot::kCount);
  slots[0] = Slot::kAggregate;
  for (size_t i = 1; i <= kSelectsPerBlock; ++i) slots[i] = Slot::kSelect;
  Shuffle(&slots, rng);
  return slots;
}

/// The dashboard mix (dashboard_warm, cluster_tcp): saved viewports at
/// epsilon in {4, 16, 64}; every (viewport, epsilon) pair and every
/// aggregate comes up equally often. Table layout: COUNT(v, e),
/// SELECT(v, e), AGG(a, e).
class DashboardMix {
 public:
  explicit DashboardMix(size_t viewports) : v_(viewports) {}
  void Fill(const std::vector<geom::Box>& viewports, std::vector<Request>* out) const {
    for (int select = 0; select < 2; ++select) {
      for (size_t v = 0; v < v_; ++v) {
        for (double eps : kDashboardEps) {
          out->push_back(MakeViewportRequest(viewports[v], static_cast<int>(v),
                                             select != 0, eps));
        }
      }
    }
    for (size_t a = 0; a < 2; ++a) {
      for (double eps : kDashboardEps) out->push_back(MakeAggregateRequest(a, eps));
    }
  }
  std::vector<uint32_t> Sequence(size_t n, SeedRng* rng) const {
    const size_t pairs = v_ * kNumEps;
    Cycle counts(0, pairs, rng);
    Cycle selects(static_cast<uint32_t>(pairs), pairs, rng);
    Cycle aggregates(static_cast<uint32_t>(2 * pairs), 2 * kNumEps, rng);
    std::vector<uint32_t> out;
    out.reserve(n + kBlock);
    while (out.size() < n) {
      for (Slot slot : BlockSlots(rng)) {
        out.push_back(slot == Slot::kCount    ? counts.Next()
                      : slot == Slot::kSelect ? selects.Next()
                                              : aggregates.Next());
      }
    }
    out.resize(n);
    return out;
  }

 private:
  size_t v_;
};

/// The ad-hoc mix (adhoc_churn): viewports drawn Zipf(1.0) from the pool,
/// each at one pixel of a 1024-px screen. Popularity ranks alternate over
/// the size classes, so the hot set has every size. Table layout:
/// COUNT(v), SELECT(v), AGG(a) at the overview bound.
class AdhocMix {
 public:
  AdhocMix(size_t pool, SeedRng* rng) : p_(pool), rank_to_viewport_(pool), cdf_(pool) {
    const size_t classes = SizeClasses(pool);
    const size_t per_class = pool / classes;
    for (size_t c = 0; c < classes; ++c) {
      std::vector<uint32_t> members(per_class);
      for (size_t j = 0; j < per_class; ++j) {
        members[j] = static_cast<uint32_t>(c * per_class + j);
      }
      Shuffle(&members, rng);
      for (size_t j = 0; j < per_class; ++j) rank_to_viewport_[j * classes + c] = members[j];
    }
    double total = 0.0;
    for (size_t r = 0; r < pool; ++r) cdf_[r] = (total += 1.0 / static_cast<double>(r + 1));
    for (double& c : cdf_) c /= total;
  }
  void Fill(const std::vector<geom::Box>& viewports, std::vector<Request>* out) const {
    for (int select = 0; select < 2; ++select) {
      for (size_t v = 0; v < p_; ++v) {
        const double eps = viewports[v].Width() / kScreenPixels * std::sqrt(2.0);
        out->push_back(
            MakeViewportRequest(viewports[v], static_cast<int>(v), select != 0, eps));
      }
    }
    for (size_t a = 0; a < 2; ++a) {
      out->push_back(MakeAggregateRequest(a, kAdhocAggregateEps));
    }
  }
  std::vector<uint32_t> Sequence(size_t n, SeedRng* rng) const {
    Cycle aggregates(static_cast<uint32_t>(2 * p_), 2, rng);
    std::vector<uint32_t> out;
    out.reserve(n + kBlock);
    while (out.size() < n) {
      for (Slot slot : BlockSlots(rng)) {
        if (slot == Slot::kAggregate) {
          out.push_back(aggregates.Next());
          continue;
        }
        const size_t rank = static_cast<size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), rng->Uniform()) - cdf_.begin());
        const size_t v = rank_to_viewport_[std::min(rank, p_ - 1)];
        out.push_back(static_cast<uint32_t>((slot == Slot::kSelect ? p_ : 0) + v));
      }
    }
    out.resize(n);
    return out;
  }

 private:
  size_t p_;
  std::vector<uint32_t> rank_to_viewport_;
  std::vector<double> cdf_;
};

}  // namespace

const char* WorkloadName(WorkloadId workload) {
  switch (workload) {
    case WorkloadId::kDashboardWarm:
      return "dashboard_warm";
    case WorkloadId::kAdhocChurn:
      return "adhoc_churn";
    case WorkloadId::kClusterTcp:
      return "cluster_tcp";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, WorkloadId* out) {
  for (WorkloadId w : {WorkloadId::kDashboardWarm, WorkloadId::kAdhocChurn,
                       WorkloadId::kClusterTcp}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

bool IsCluster(WorkloadId workload) { return workload == WorkloadId::kClusterTcp; }

Scale Scale::Full() {
  Scale s;
  s.points = 1000000;
  s.regions = 500;
  s.saved_viewports = 256;
  s.adhoc_pool = 1024;
  s.adhoc_warm = 4000;
  s.trace_prefix = 1500;
  s.trace_prefix_cluster = 600;
  s.setup_reps = 3;
  s.sequence_length = 200000;
  return s;
}

Scale Scale::Small() {
  Scale s;
  s.points = 100000;
  s.regions = 60;
  s.saved_viewports = 16;
  s.adhoc_pool = 256;
  s.adhoc_warm = 400;
  s.trace_prefix = 200;
  s.trace_prefix_cluster = 120;
  s.setup_reps = 1;
  s.sequence_length = 50000;
  return s;
}

Inputs MakeInputs(WorkloadId workload, const Scale& scale, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.universe = geom::Box(0.0, 0.0, 16384.0, 16384.0);
  SeedRng viewport_rng(seed, kViewports);
  const auto draw_all = [&](const auto& mix) {
    for (size_t c = 0; c < kClients; ++c) {
      SeedRng rng(seed, kClient + c);
      in.client_sequences.push_back(mix.Sequence(scale.sequence_length, &rng));
    }
  };
  if (workload == WorkloadId::kAdhocChurn) {
    in.viewports = MakeViewports(in.universe, scale.adhoc_pool,
                                 SizeClasses(scale.adhoc_pool), &viewport_rng);
    SeedRng rank_rng(seed, kRanks);
    const AdhocMix mix(scale.adhoc_pool, &rank_rng);
    mix.Fill(in.viewports, &in.distinct);
    draw_all(mix);
    SeedRng warm_rng(seed, kWarm);
    in.warm_sequence = mix.Sequence(scale.adhoc_warm, &warm_rng);
    in.cache_budget_bytes = kAdhocCacheBytes;
  } else {
    in.viewports = MakeViewports(in.universe, scale.saved_viewports,
                                 SizeClasses(scale.saved_viewports), &viewport_rng);
    const DashboardMix mix(scale.saved_viewports);
    mix.Fill(in.viewports, &in.distinct);
    draw_all(mix);
    // The fill pass: every distinct request once.
    for (size_t i = 0; i < in.distinct.size(); ++i) {
      in.warm_sequence.push_back(static_cast<uint32_t>(i));
    }
    in.cache_budget_bytes = kDashboardCacheBytes;
  }
  const size_t prefix =
      IsCluster(workload) ? scale.trace_prefix_cluster : scale.trace_prefix;
  in.trace_sequence.assign(in.client_sequences[0].begin(),
                           in.client_sequences[0].begin() +
                               static_cast<std::ptrdiff_t>(prefix));
  return in;
}

size_t RunPass(service::QueryService& service, const Inputs& inputs,
               const std::vector<uint32_t>& ids, size_t threads) {
  std::vector<size_t> bad(threads, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      for (size_t i = t; i < ids.size(); i += threads) {
        const Request& r = inputs.distinct[ids[i]];
        if (!service.Execute(r.query, r.options).get().ok()) ++bad[t];
      }
    });
  }
  for (std::thread& w : workers) w.join();
  size_t total = 0;
  for (size_t b : bad) total += b;
  return total;
}

ShardCacheTotals SumShardCaches(const service::InProcessShardCluster& cluster) {
  ShardCacheTotals t;
  for (const auto& server : cluster.servers) {
    const service::ShardServer::Stats s = server->stats();
    t.hits += s.cache_hits;
    t.misses += s.cache_misses;
  }
  return t;
}

namespace {

/// The shape of service::MakeInProcessShardClusterFromState — one
/// ShardServer per shard behind a ShardListener on an ephemeral localhost
/// port, serving its registry — but with a per-shard cell cache that holds
/// the working set. The helper keeps ShardServer's 8 MB default, which the
/// dashboard mix overflows (kNotCached resends on every pass); a real
/// deployment sets shard_server_main --cache_budget_mb instead.
std::unique_ptr<service::InProcessShardCluster> StandUpCluster(
    std::shared_ptr<const core::ShardedState> sharded, const HandlerWrap& wrap) {
  auto cluster = std::make_unique<service::InProcessShardCluster>();
  cluster->sharded = std::move(sharded);
  for (size_t s = 0; s < cluster->sharded->num_shards(); ++s) {
    const core::ShardedState::Shard& shard = cluster->sharded->shard(s);
    service::ShardServer::Options server_options;
    server_options.shard_index = s;
    server_options.serving_epoch = kEpoch;
    server_options.cell_cache_budget_bytes = kShardCacheBytes;
    cluster->servers.push_back(std::make_unique<service::ShardServer>(
        shard.state, shard.global_ids, server_options));
    service::ShardServer* server = cluster->servers.back().get();
    const service::ShardListener::Handler handler =
        [server](const std::string& request) { return server->Handle(request); };
    service::ShardListener::Options listen_options;
    listen_options.registry = server->registry();
    cluster->primaries.push_back(std::make_unique<service::ShardListener>(
        wrap ? wrap(s, handler) : handler, listen_options));
    cluster->placement.Add(cluster->primaries.back()->endpoint());
  }
  return cluster;
}

/// Fills the caches, then asserts the warm state over a second pass of
/// the same requests: no ApproxCache miss, and on the cluster per-shard
/// cache hits with no kNotCached answer. Returns the failure, if any.
std::string WarmUp(const Inputs& inputs, Deployment* dep) {
  service::QueryService& svc = *dep->service;
  if (inputs.workload != WorkloadId::kAdhocChurn) {
    for (double eps : kDashboardEps) svc.WarmCache(eps);
  }
  size_t bad = RunPass(svc, inputs, inputs.warm_sequence, kClients);
  if (inputs.workload == WorkloadId::kAdhocChurn) {
    return bad == 0 ? "" : std::to_string(bad) + " warm-up answers failed";
  }
  const service::ApproxCache::Stats before = svc.cache_stats();
  const ShardCacheTotals shard_before =
      dep->cluster ? SumShardCaches(*dep->cluster) : ShardCacheTotals{};
  bad += RunPass(svc, inputs, inputs.warm_sequence, kClients);
  const service::ApproxCache::Stats after = svc.cache_stats();
  if (bad != 0) return std::to_string(bad) + " warm-up answers failed";
  const size_t misses = after.misses - before.misses;
  if (misses != 0) {
    return "ApproxCache not warm: " + std::to_string(misses) +
           " misses in the warm-check pass (hit ratio " +
           std::to_string(static_cast<double>(after.hits - before.hits) /
                          static_cast<double>(after.hits - before.hits + misses)) +
           ")";
  }
  if (dep->cluster) {
    const ShardCacheTotals shard_after = SumShardCaches(*dep->cluster);
    const uint64_t hits = shard_after.hits - shard_before.hits;
    const uint64_t not_cached = shard_after.misses - shard_before.misses;
    if (hits == 0 || not_cached != 0) {
      return "shard caches not warm: " + std::to_string(hits) + " hits, " +
             std::to_string(not_cached) + " kNotCached resends in the warm-check pass";
    }
  }
  return "";
}

}  // namespace

std::unique_ptr<Deployment> SetUp(const Inputs& inputs, const Scale& scale,
                                  const HandlerWrap& wrap) {
  auto dep = std::make_unique<Deployment>();
  SetupTimes& times = dep->times;
  const Timer total;
  Timer phase;
  dbsa::data::TaxiConfig taxi;
  taxi.universe = inputs.universe;
  dbsa::data::PointSet points = dbsa::data::GenerateTaxiPoints(scale.points, taxi);
  dbsa::data::RegionSet regions = dbsa::data::GenerateRegions(
      dbsa::data::CensusConfig(inputs.universe, scale.regions));
  times.dataset_ms = phase.Millis();
  phase.Reset();
  dep->reference = core::BuildEngineState(std::move(points), std::move(regions));

  service::ServiceOptions options;
  options.num_threads = kServiceThreads;
  options.enable_tracing = false;
  // A region aggregate runs on one pool worker. With the default fan-out
  // an eps=4 aggregate holds all four workers for ~35 ms, and the COUNT
  // and SELECT tails are set by the few percent of requests queued behind
  // it: their p90 sat on that knee and moved 2 -> 5 ms between seeds.
  options.parallel_regions = false;
  options.cache_budget_bytes = inputs.cache_budget_bytes;
  if (IsCluster(inputs.workload)) {
    // Cut the epoch-stamped snapshot set in memory, then serve the state
    // assembled back from it.
    core::ShardingOptions sharding;
    sharding.num_shards = kShards;
    std::string client_file;
    std::vector<std::string> slice_files;
    {
      const std::shared_ptr<const core::ShardedState> built =
          core::ShardedState::Build(dep->reference, sharding);
      client_file = dbsa::snapshot::EncodeClientSnapshot(*built, kEpoch);
      for (size_t s = 0; s < kShards; ++s) {
        slice_files.push_back(dbsa::snapshot::EncodeShardSnapshot(*built, s, kEpoch));
      }
    }
    times.engine_build_ms = phase.Millis();
    phase.Reset();
    dbsa::StatusOr<dbsa::snapshot::SnapshotReader> client =
        dbsa::snapshot::SnapshotReader::Parse(std::move(client_file));
    std::vector<dbsa::snapshot::SnapshotReader> slices;
    bool parsed = client.ok();
    for (std::string& file : slice_files) {
      dbsa::StatusOr<dbsa::snapshot::SnapshotReader> slice =
          dbsa::snapshot::SnapshotReader::Parse(std::move(file));
      parsed = parsed && slice.ok();
      if (slice.ok()) slices.push_back(std::move(slice).value());
    }
    if (!parsed) {
      dep->setup_error = "snapshot set failed to parse";
      return dep;
    }
    dbsa::StatusOr<std::shared_ptr<const core::ShardedState>> assembled =
        dbsa::snapshot::AssembleClusterState(client.value(), slices);
    if (!assembled.ok()) {
      dep->setup_error = "snapshot assembly failed: " + assembled.status().ToString();
      return dep;
    }
    dep->sharded = std::move(assembled).value();
    times.snapshot_load_ms = phase.Millis();
    phase.Reset();
    dep->cluster = StandUpCluster(dep->sharded, wrap);
    options.use_transport = true;
    options.transport_kind = service::TransportKind::kSocket;
    options.placement = dep->cluster->placement;
    options.num_shards = 0;  // From the placement.
    options.serving_epoch = kEpoch;
    dep->service = std::make_unique<service::QueryService>(dep->sharded, options);
  } else {
    times.engine_build_ms = phase.Millis();
    phase.Reset();
    dep->service = std::make_unique<service::QueryService>(dep->reference, options);
  }
  times.standup_ms = phase.Millis();
  phase.Reset();
  dep->setup_error = WarmUp(inputs, dep.get());
  times.warm_ms = phase.Millis();
  times.cache_bytes = dep->service->cache_stats().bytes_used;
  times.total_s = total.Seconds();
  return dep;
}

geom::Polygon BoxPolygon(const geom::Box& b) {
  geom::Polygon poly(geom::Ring{{b.min.x, b.min.y},
                                {b.max.x, b.min.y},
                                {b.max.x, b.max.y},
                                {b.min.x, b.max.y}});
  poly.Normalize();
  return poly;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double NowUs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   origin)
      .count();
}

}  // namespace perfbench
