// The Section 4 optimization layer: the rasterized-canvas model and the
// cell indexes give several physically different plans for the same
// distance-bounded aggregation query; a simple cost model picks one from
// the query parameters (distance bound, input cardinalities, polygon
// complexity) and explains its choice.

#ifndef DBSA_QUERY_OPTIMIZER_H_
#define DBSA_QUERY_OPTIMIZER_H_

#include <cstddef>
#include <string>

namespace dbsa::query {

/// Physical strategies for the spatial aggregation query.
enum class PlanKind {
  kActJoin,         ///< Epsilon-bounded ACT, index-nested-loop (Sec. 5.1).
  kPointIndexJoin,  ///< Linearized point index + HR query cells (Sec. 3).
  kCanvasBrj,       ///< Bounded Raster Join on the canvas model (Sec. 5.2).
  kExactRStar,      ///< Exact filter-and-refine (baseline).
};

const char* PlanKindName(PlanKind kind);

/// Workload description handed to the optimizer.
struct QueryProfile {
  size_t num_points = 0;
  size_t num_polygons = 0;
  double avg_vertices = 0.0;       ///< Polygon complexity drives PIP cost.
  double epsilon = 0.0;            ///< 0 = exact required.
  double universe_extent = 0.0;    ///< Side of the universe square.
  double total_perimeter = 0.0;    ///< Sum over polygons (boundary cells).
  double total_polygon_area = 0.0;
  bool point_index_available = false;  ///< Amortized across queries?
  /// True when a serving layer caches HR approximations of the region
  /// table, making the per-query HR construction of the point-index plan
  /// (nearly) free after the first execution.
  bool hr_cache_available = false;
  /// Spatially-partitioned shards the point-index plan fans its probes
  /// out across (core::ShardedState). The modeled probe cost divides by
  /// this number — an optimistic discount: it is realized when a query's
  /// cells scatter across all shards on enough cores, and overstated when
  /// pruning leaves fewer survivors (selective queries) or cores are
  /// scarce. 1 = unsharded.
  double parallel_shards = 1.0;
  /// Abstract cost units charged per shard probe message round-trip when
  /// the shards sit behind a transport (service/shard_server.h): each
  /// repetition of the point-index plan pays `parallel_shards *
  /// transport_overhead` on top of the divided probe cost, so the fan-out
  /// discount no longer looks free once serialization (loopback) or a
  /// network (RPC) is in the loop. 0 = in-process shards.
  double transport_overhead = 0.0;
  int repetitions = 1;                 ///< Expected executions of the plan.
};

/// A costed plan choice.
struct PlanChoice {
  PlanKind kind = PlanKind::kExactRStar;
  double est_cost = 0.0;       ///< Abstract cost units.
  std::string explain;         ///< EXPLAIN-style text for all options.
};

/// Per-plan cost estimates (exposed for tests and the EXPLAIN output).
struct PlanCosts {
  double act = 0.0;
  double point_index = 0.0;
  double brj = 0.0;
  double exact = 0.0;
};

/// Estimates abstract costs for every plan.
PlanCosts EstimateCosts(const QueryProfile& profile);

/// Picks the cheapest applicable plan. If epsilon == 0 only exact plans
/// qualify.
PlanChoice ChoosePlan(const QueryProfile& profile);

}  // namespace dbsa::query

#endif  // DBSA_QUERY_OPTIMIZER_H_
