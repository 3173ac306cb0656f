// Tests for the optimization layer: cost-based plan selection behaviour.

#include <gtest/gtest.h>

#include "query/optimizer.h"

namespace dbsa::query {
namespace {

QueryProfile BaseProfile() {
  QueryProfile p;
  p.num_points = 1000000;
  p.num_polygons = 300;
  p.avg_vertices = 30;
  p.epsilon = 4.0;
  p.universe_extent = 65536.0;
  p.total_perimeter = 300 * 4 * 4000.0;
  p.total_polygon_area = 65536.0 * 65536.0;
  p.repetitions = 1;
  return p;
}

TEST(OptimizerTest, ExactRequiredWhenEpsilonZero) {
  QueryProfile p = BaseProfile();
  p.epsilon = 0.0;
  const PlanChoice choice = ChoosePlan(p);
  EXPECT_EQ(choice.kind, PlanKind::kExactRStar);
  EXPECT_NE(choice.explain.find("exact"), std::string::npos);
}

TEST(OptimizerTest, RepetitionFavorsIndexedPlans) {
  // With an amortized point index, complex query polygons and many
  // repetitions, the cell-range searches beat per-point PIP refinement.
  QueryProfile p = BaseProfile();
  p.num_points = 10000000;
  p.num_polygons = 100;
  p.avg_vertices = 663;                      // Boroughs-like complexity.
  p.total_perimeter = 100 * 4 * 1000.0;      // Compact regions.
  p.point_index_available = true;
  p.repetitions = 100;
  const PlanCosts costs = EstimateCosts(p);
  EXPECT_LT(costs.point_index, costs.exact);
  const PlanChoice choice = ChoosePlan(p);
  EXPECT_NE(choice.kind, PlanKind::kExactRStar);
}

TEST(OptimizerTest, ShardsDividePointIndexProbeCost) {
  QueryProfile p = BaseProfile();
  p.point_index_available = true;
  p.hr_cache_available = true;  // Isolate the probe term.
  const double unsharded = EstimateCosts(p).point_index;
  p.parallel_shards = 8.0;
  const double sharded = EstimateCosts(p).point_index;
  EXPECT_LT(sharded, unsharded / 4.0);  // ~8x with the smaller per-shard index.
  // Other plans are unaffected by sharding.
  QueryProfile q = BaseProfile();
  QueryProfile q8 = BaseProfile();
  q8.parallel_shards = 8.0;
  EXPECT_EQ(EstimateCosts(q).act, EstimateCosts(q8).act);
  EXPECT_EQ(EstimateCosts(q).brj, EstimateCosts(q8).brj);
  EXPECT_EQ(EstimateCosts(q).exact, EstimateCosts(q8).exact);
  // The sharded probe discount can flip the plan choice.
  const PlanChoice choice = ChoosePlan(q8);
  EXPECT_NE(choice.explain.find("shards=8"), std::string::npos);
}

TEST(OptimizerTest, TransportOverheadChargesPerShardMessage) {
  QueryProfile p = BaseProfile();
  p.point_index_available = true;
  p.hr_cache_available = true;
  p.parallel_shards = 8.0;
  const double in_process = EstimateCosts(p).point_index;
  p.transport_overhead = 64.0;  // Loopback-ish serialization cost.
  const double loopback = EstimateCosts(p).point_index;
  EXPECT_NEAR(loopback, in_process + 8.0 * 64.0, 1e-6);
  // A network-ish overhead scales the penalty with the fan-out: the
  // discount is no longer free, and more shards cost more messages.
  p.transport_overhead = 1e6;
  const double rpc8 = EstimateCosts(p).point_index;
  p.parallel_shards = 16.0;
  const double rpc16 = EstimateCosts(p).point_index;
  EXPECT_GT(rpc8, in_process);
  EXPECT_GT(rpc16, rpc8);
  // Other plans never pay the transport term.
  QueryProfile q = BaseProfile();
  QueryProfile qt = BaseProfile();
  qt.transport_overhead = 1e6;
  EXPECT_EQ(EstimateCosts(q).act, EstimateCosts(qt).act);
  EXPECT_EQ(EstimateCosts(q).brj, EstimateCosts(qt).brj);
  EXPECT_EQ(EstimateCosts(q).exact, EstimateCosts(qt).exact);
}

TEST(OptimizerTest, ComplexPolygonsPenalizeExact) {
  QueryProfile simple = BaseProfile();
  simple.avg_vertices = 10;
  QueryProfile complex_polys = BaseProfile();
  complex_polys.avg_vertices = 700;
  EXPECT_GT(EstimateCosts(complex_polys).exact, EstimateCosts(simple).exact * 5);
}

TEST(OptimizerTest, TightEpsilonRaisesRasterCosts) {
  QueryProfile loose = BaseProfile();
  loose.epsilon = 10.0;
  QueryProfile tight = BaseProfile();
  tight.epsilon = 0.5;
  const PlanCosts lc = EstimateCosts(loose);
  const PlanCosts tc = EstimateCosts(tight);
  EXPECT_GT(tc.brj, lc.brj);
  EXPECT_GT(tc.act, lc.act);
  // Exact cost is epsilon-independent.
  EXPECT_DOUBLE_EQ(tc.exact, lc.exact);
}

TEST(OptimizerTest, ExplainMentionsAllCandidates) {
  const PlanChoice choice = ChoosePlan(BaseProfile());
  EXPECT_NE(choice.explain.find("ACT"), std::string::npos);
  EXPECT_NE(choice.explain.find("BRJ"), std::string::npos);
  EXPECT_NE(choice.explain.find("EXACT"), std::string::npos);
  EXPECT_GT(choice.est_cost, 0.0);
}

TEST(OptimizerTest, PlanKindNamesAreStable) {
  EXPECT_STREQ(PlanKindName(PlanKind::kActJoin), "ACT-JOIN");
  EXPECT_STREQ(PlanKindName(PlanKind::kCanvasBrj), "CANVAS-BRJ");
}

}  // namespace
}  // namespace dbsa::query
