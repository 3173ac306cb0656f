#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <variant>

#include "query/error_bound.h"

namespace perfbench {

namespace core = dbsa::core;
namespace geom = dbsa::geom;
namespace service = dbsa::service;

namespace {

class Hasher {
 public:
  void Word(uint64_t w) {
    h_ ^= w;
    h_ *= 0xff51afd7ed558ccdULL;
    h_ ^= h_ >> 32;
  }
  void Double(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Word(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x9e3779b97f4a7c15ULL;
};

const geom::Polygon& ViewportPolygon(const service::Query& query) {
  if (const auto* count = std::get_if<service::CountSpec>(&query.spec())) {
    return count->poly;
  }
  return std::get<service::SelectSpec>(query.spec()).poly;
}

/// Points inside each viewport (boundary inclusive), by a sweep over the
/// x-sorted point table.
std::vector<double> RectangleCounts(const core::EngineState& engine,
                                    const std::vector<geom::Box>& viewports) {
  std::vector<geom::Point> pts = engine.points->locs;
  std::sort(pts.begin(), pts.end(),
            [](const geom::Point& a, const geom::Point& b) { return a.x < b.x; });
  std::vector<double> out;
  out.reserve(viewports.size());
  for (const geom::Box& b : viewports) {
    auto it = std::lower_bound(
        pts.begin(), pts.end(), b.min.x,
        [](const geom::Point& p, double x) { return p.x < x; });
    size_t n = 0;
    for (; it != pts.end() && it->x <= b.max.x; ++it) {
      n += (it->y >= b.min.y && it->y <= b.max.y) ? 1 : 0;
    }
    out.push_back(static_cast<double>(n));
  }
  return out;
}

template <typename Fn>
void ParallelFor(size_t n, size_t threads, Fn&& fn) {
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      for (size_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& w : workers) w.join();
}

bool Within(double x, double lo, double hi) {
  const double slack = 1e-9 * std::max(1.0, std::fabs(x));
  return x >= lo - slack && x <= hi + slack;
}

/// Number of viewports whose rectangle count is cross-checked against
/// the engine's exact (point-in-polygon) COUNT.
constexpr size_t kExactCrossChecks = 16;

}  // namespace

uint64_t Digest(const dbsa::join::ResultRange& range) {
  Hasher h;
  h.Double(range.approx);
  h.Double(range.lo);
  h.Double(range.hi);
  h.Double(range.estimate);
  return h.value();
}

uint64_t Digest(const std::vector<uint32_t>& ids) {
  Hasher h;
  h.Word(ids.size());
  size_t i = 0;
  for (; i + 1 < ids.size(); i += 2) {
    h.Word((static_cast<uint64_t>(ids[i]) << 32) | ids[i + 1]);
  }
  if (i < ids.size()) h.Word(ids[i]);
  return h.value();
}

uint64_t Digest(const std::vector<core::AggregateRow>& rows) {
  Hasher h;
  h.Word(rows.size());
  for (const core::AggregateRow& r : rows) {
    h.Word(r.region);
    h.Double(r.value);
    h.Double(r.lo);
    h.Double(r.hi);
  }
  return h.value();
}

uint64_t Digest(const service::Result& result) {
  switch (result.kind) {
    case service::QueryKind::kAggregate:
      return Digest(result.aggregate.rows);
    case service::QueryKind::kCount:
      return Digest(result.range);
    case service::QueryKind::kSelect:
      return Digest(result.ids);
  }
  return 0;
}

std::vector<Expected> BuildOracle(const core::EngineState& engine,
                                  const Inputs& inputs, size_t threads) {
  const std::vector<double> exact = RectangleCounts(engine, inputs.viewports);
  std::vector<Expected> out(inputs.distinct.size());

  // Exact region aggregates (COUNT, SUM(fare)) for the range checks.
  std::vector<core::AggregateAnswer> exact_agg(2);
  ParallelFor(2, 2, [&](size_t a) {
    exact_agg[a] = core::ExecuteAggregate(
        engine, a == 0 ? dbsa::join::AggKind::kCount : dbsa::join::AggKind::kSum,
        a == 0 ? core::Attr::kNone : core::Attr::kFare, dbsa::query::ErrorBound::Exact());
  });

  ParallelFor(inputs.distinct.size(), threads, [&](size_t i) {
    const Request& r = inputs.distinct[i];
    Expected& e = out[i];
    switch (r.query.kind()) {
      case service::QueryKind::kCount: {
        const dbsa::join::ResultRange range =
            core::ExecuteCount(engine, ViewportPolygon(r.query), r.options.bound).range;
        e.digest = Digest(range);
        e.exact = exact[static_cast<size_t>(r.viewport)];
        e.width_rel = (range.hi - range.lo) / std::max(e.exact, 1.0);
        if (!range.Contains(e.exact)) {
          e.error = "exact count " + std::to_string(e.exact) + " outside [" +
                    std::to_string(range.lo) + ", " + std::to_string(range.hi) + "]";
        }
        break;
      }
      case service::QueryKind::kSelect: {
        const std::vector<uint32_t> ids =
            core::ExecuteSelect(engine, ViewportPolygon(r.query), r.options.bound).ids;
        e.digest = Digest(ids);
        e.exact = exact[static_cast<size_t>(r.viewport)];
        if (static_cast<double>(ids.size()) < e.exact) {
          e.error = "selection of " + std::to_string(ids.size()) +
                    " ids misses points of the exact " + std::to_string(e.exact);
        }
        break;
      }
      case service::QueryKind::kAggregate: {
        const auto& spec = std::get<service::AggregateSpec>(r.query.spec());
        const core::AggregateAnswer answer = core::ExecuteAggregate(
            engine, spec.agg, spec.attr, r.options.bound, r.options.mode);
        e.digest = Digest(answer.rows);
        const std::vector<core::AggregateRow>& truth =
            exact_agg[spec.agg == dbsa::join::AggKind::kCount ? 0 : 1].rows;
        if (truth.size() != answer.rows.size()) {
          e.error = "aggregate row count differs from the exact plan";
          break;
        }
        for (size_t k = 0; k < truth.size(); ++k) {
          if (!Within(truth[k].value, answer.rows[k].lo, answer.rows[k].hi)) {
            e.error = "region " + std::to_string(k) + ": exact " +
                      std::to_string(truth[k].value) + " outside its range";
            break;
          }
        }
        break;
      }
    }
  });

  // The rectangle test must agree with the engine's exact COUNT.
  const size_t checks = std::min(kExactCrossChecks, inputs.viewports.size());
  std::vector<std::string> mismatch(checks);
  ParallelFor(checks, threads, [&](size_t k) {
    const size_t v = k * inputs.viewports.size() / checks;
    const double engine_exact =
        core::ExecuteCount(engine, BoxPolygon(inputs.viewports[v]),
                           dbsa::query::ErrorBound::Exact())
            .range.approx;
    if (engine_exact != exact[v]) {
      mismatch[k] = "viewport " + std::to_string(v) + ": rectangle count " +
                    std::to_string(exact[v]) + " != exact COUNT " +
                    std::to_string(engine_exact);
    }
  });
  for (const std::string& m : mismatch) {
    if (m.empty()) continue;
    for (size_t i = 0; i < out.size(); ++i) {
      if (inputs.distinct[i].viewport >= 0) out[i].error = "oracle: " + m;
    }
  }
  return out;
}

}  // namespace perfbench
