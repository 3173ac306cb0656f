// Tests for the concurrent query service: thread-pool basics, the
// batched Submit/Drain API, cache warm-up, and the load-bearing guarantee
// that a service run with many threads returns results BYTE-IDENTICAL to
// the single-threaded SpatialEngine on the same workload.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/dbsa.h"
#include "service/query_service.h"
#include "service/thread_pool.h"
#include "test_util.h"

namespace dbsa::service {
namespace {

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  futures.reserve(32);
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Async([&counter, i]() {
      counter.fetch_add(1);
      return i * i;
    }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[i].get(), i * i);
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> outer;
  // More outer tasks than threads, each nesting an inner loop: the inner
  // ParallelFor must make progress on the calling worker alone.
  for (int t = 0; t < 4; ++t) {
    outer.push_back(pool.Async([&]() {
      pool.ParallelFor(50, [&](size_t) { total.fetch_add(1); });
    }));
  }
  for (auto& f : outer) f.get();
  EXPECT_EQ(total.load(), 4 * 50);
}

TEST(ThreadPoolTest, ParallelForRethrowsBodyExceptionWithoutHanging) {
  // Regression: a throwing body used to strand the caller waiting for
  // done == n (the thrown iteration never counted) or terminate the
  // worker. The contract now: first exception rethrown on the caller,
  // remaining iterations drained, pool fully usable afterwards.
  ThreadPool pool(4);
  constexpr size_t kN = 200;
  std::atomic<int> ran{0};
  try {
    pool.ParallelFor(kN, [&](size_t i) {
      if (i == 17) throw std::runtime_error("iteration 17 failed");
      ran.fetch_add(1);
    });
    FAIL() << "ParallelFor must rethrow the body exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "iteration 17 failed");
  }
  EXPECT_LT(ran.load(), static_cast<int>(kN));  // 17 itself never counted.

  // Every iteration throws: still exactly one exception, no hang.
  EXPECT_THROW(
      pool.ParallelFor(kN, [](size_t) { throw std::runtime_error("all fail"); }),
      std::runtime_error);

  // The pool survives and runs clean loops afterwards.
  std::atomic<int> clean{0};
  pool.ParallelFor(kN, [&](size_t) { clean.fetch_add(1); });
  EXPECT_EQ(clean.load(), static_cast<int>(kN));
}

TEST(ThreadPoolTest, ParallelForExceptionFromNestedWorkerLoop) {
  // A pool worker nesting a throwing ParallelFor must get the exception
  // on its own (worker) thread and not wedge the outer loop.
  ThreadPool pool(2);
  std::atomic<int> caught{0};
  std::vector<std::future<void>> outer;
  for (int t = 0; t < 4; ++t) {
    outer.push_back(pool.Async([&]() {
      try {
        pool.ParallelFor(50, [&](size_t i) {
          if (i % 7 == 3) throw std::logic_error("nested failure");
        });
      } catch (const std::logic_error&) {
        caught.fetch_add(1);
      }
    }));
  }
  for (auto& f : outer) f.get();
  EXPECT_EQ(caught.load(), 4);
}

TEST(ThreadPoolTest, ZeroAndOneIterationLoops) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

// ----------------------------------------------------------- the service

using dbsa::testing::Submission;
using dbsa::testing::Within;

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 4096, 4096);
    points_ = data::GenerateTaxiPoints(20000, taxi_config);

    data::RegionConfig region_config;
    region_config.universe = taxi_config.universe;
    region_config.num_polygons = 16;
    region_config.target_avg_vertices = 24;
    region_config.multi_fraction = 0.2;  // Exercise multi-part regions.
    regions_ = data::GenerateRegions(region_config);

    engine_.SetPoints(points_);
    engine_.SetRegions(regions_);
  }

  /// The mixed workload both executors run. Explicit modes (not kAuto):
  /// the service advertises its HR cache to the optimizer, so kAuto may
  /// legitimately pick different plans than the engine.
  std::vector<Submission> MixedWorkload() const {
    std::vector<Submission> subs;
    const geom::Polygon star1 =
        dbsa::testing::MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
    const geom::Polygon star2 =
        dbsa::testing::MakeStarPolygon({1200, 2800}, 300, 700, 12, 23);
    for (const double eps : {4.0, 8.0, 16.0}) {
      for (const core::Mode mode :
           {core::Mode::kAct, core::Mode::kPointIndex, core::Mode::kCanvasBrj}) {
        subs.push_back({Query::Aggregate(join::AggKind::kCount), Within(eps, mode)});
        subs.push_back({Query::Aggregate(join::AggKind::kSum, core::Attr::kFare),
                        Within(eps, mode)});
        subs.push_back({Query::Aggregate(join::AggKind::kAvg, core::Attr::kPassengers),
                        Within(eps, mode)});
      }
      subs.push_back({Query::Count(star1), Within(eps)});
      subs.push_back({Query::Count(star2), Within(eps)});
      subs.push_back({Query::Select(star1), Within(eps)});
    }
    subs.push_back({Query::Aggregate(join::AggKind::kCount),
                    Within(/*eps=*/0.0, core::Mode::kExact)});
    return subs;
  }

  /// Single-threaded reference execution through the engine façade.
  Result Baseline(const Submission& sub) {
    Result r;
    r.kind = sub.query.kind();
    const double eps = sub.options.bound.epsilon;
    sub.query.Visit([&](const auto& spec) {
      using Spec = std::decay_t<decltype(spec)>;
      if constexpr (std::is_same_v<Spec, AggregateSpec>) {
        r.aggregate = engine_.Aggregate(spec.agg, spec.attr, eps, sub.options.mode);
      } else if constexpr (std::is_same_v<Spec, CountSpec>) {
        r.range = engine_.CountInPolygon(spec.poly, eps);
      } else {
        r.ids = engine_.SelectInPolygon(spec.poly, eps);
      }
    });
    return r;
  }

  /// Byte-exact comparison of the query payloads (== on doubles, no
  /// tolerance: the determinism contract).
  static void ExpectIdentical(const Result& got, const Result& want, size_t index) {
    ASSERT_TRUE(got.ok()) << "request " << index << ": " << got.status.ToString();
    ASSERT_EQ(got.kind, want.kind) << "request " << index;
    switch (want.kind) {
      case QueryKind::kAggregate: {
        ASSERT_EQ(got.aggregate.rows.size(), want.aggregate.rows.size())
            << "request " << index;
        for (size_t r = 0; r < want.aggregate.rows.size(); ++r) {
          EXPECT_EQ(got.aggregate.rows[r].region, want.aggregate.rows[r].region)
              << "request " << index << " region " << r;
          EXPECT_EQ(got.aggregate.rows[r].value, want.aggregate.rows[r].value)
              << "request " << index << " region " << r;
          EXPECT_EQ(got.aggregate.rows[r].lo, want.aggregate.rows[r].lo)
              << "request " << index << " region " << r;
          EXPECT_EQ(got.aggregate.rows[r].hi, want.aggregate.rows[r].hi)
              << "request " << index << " region " << r;
        }
        break;
      }
      case QueryKind::kCount:
        EXPECT_EQ(got.range.estimate, want.range.estimate) << "request " << index;
        EXPECT_EQ(got.range.lo, want.range.lo) << "request " << index;
        EXPECT_EQ(got.range.hi, want.range.hi) << "request " << index;
        break;
      case QueryKind::kSelect:
        ASSERT_EQ(got.ids, want.ids) << "request " << index;
        break;
    }
  }

  /// One aggregate through the service's typed-future entry point.
  static core::AggregateAnswer RunAggregate(QueryService& service, join::AggKind agg,
                                            core::Attr attr, double eps,
                                            core::Mode mode = core::Mode::kAuto) {
    Result r = service.Execute(Query::Aggregate(agg, attr), Within(eps, mode)).get();
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    return std::move(r.aggregate);
  }

  data::PointSet points_;
  data::RegionSet regions_;
  core::SpatialEngine engine_;
};

TEST_F(QueryServiceTest, EightThreadsByteMatchSingleThreadedEngine) {
  // Duplicate the workload so the second half hits the warm cache —
  // cached approximations must not change a single bit of any answer.
  // (Via an explicit copy: self-range insert invalidates the source
  // iterators on reallocation and used to corrupt the duplicated half.)
  std::vector<Submission> workload = MixedWorkload();
  const std::vector<Submission> first_pass = workload;
  workload.insert(workload.end(), first_pass.begin(), first_pass.end());

  std::vector<Result> expected;
  expected.reserve(workload.size());
  for (const Submission& sub : workload) expected.push_back(Baseline(sub));

  ServiceOptions options;
  options.num_threads = 8;
  options.cache_budget_bytes = size_t{32} << 20;
  QueryService service(engine_.Snapshot(), options);
  ASSERT_EQ(service.num_threads(), 8u);

  std::vector<uint64_t> tickets;
  tickets.reserve(workload.size());
  for (const Submission& sub : workload) {
    tickets.push_back(service.Submit(sub.query, sub.options));
  }
  const std::vector<Result> results = service.Drain();

  ASSERT_EQ(results.size(), workload.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].ticket, tickets[i]) << "Drain must keep submit order";
    ExpectIdentical(results[i], expected[i], i);
  }

  // The duplicated half must have found the region approximations in the
  // cache: every (polygon, level) pair is built at most once.
  const ApproxCache::Stats stats = service.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LE(stats.bytes_used, stats.budget_bytes);
}

TEST_F(QueryServiceTest, TypedFutureInterface) {
  QueryService service(engine_.Snapshot(), {});
  std::future<Result> agg = service.Execute(Query::Aggregate(join::AggKind::kCount),
                                            Within(8.0, core::Mode::kPointIndex));
  const geom::Polygon star =
      dbsa::testing::MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  std::future<Result> range = service.Execute(Query::Count(star), Within(8.0));
  std::future<Result> ids = service.Execute(Query::Select(star), Within(8.0));

  const core::AggregateAnswer engine_agg =
      engine_.Aggregate(join::AggKind::kCount, core::Attr::kNone, 8.0,
                        core::Mode::kPointIndex);
  const Result service_agg = agg.get();
  ASSERT_TRUE(service_agg.ok()) << service_agg.status.ToString();
  EXPECT_EQ(service_agg.kind, QueryKind::kAggregate);
  ASSERT_EQ(service_agg.aggregate.rows.size(), engine_agg.rows.size());
  for (size_t r = 0; r < engine_agg.rows.size(); ++r) {
    EXPECT_EQ(service_agg.aggregate.rows[r].value, engine_agg.rows[r].value);
  }
  const join::ResultRange engine_range = engine_.CountInPolygon(star, 8.0);
  const Result service_range = range.get();
  ASSERT_TRUE(service_range.ok()) << service_range.status.ToString();
  EXPECT_EQ(service_range.range.lo, engine_range.lo);
  EXPECT_EQ(service_range.range.hi, engine_range.hi);
  const Result service_ids = ids.get();
  ASSERT_TRUE(service_ids.ok()) << service_ids.status.ToString();
  EXPECT_EQ(service_ids.ids, engine_.SelectInPolygon(star, 8.0));
}

TEST_F(QueryServiceTest, WarmCacheMakesAggregatesMissFree) {
  QueryService service(engine_.Snapshot(), {});
  service.WarmCache(8.0);
  const size_t polys = service.state().regions->NumPolygons();
  EXPECT_EQ(service.cache_stats().misses, polys);

  const core::AggregateAnswer answer =
      RunAggregate(service, join::AggKind::kCount, core::Attr::kNone, 8.0,
                   core::Mode::kPointIndex);
  EXPECT_EQ(answer.stats.hr_cache_misses, 0u);
  EXPECT_EQ(answer.stats.hr_cache_hits, polys);
}

TEST_F(QueryServiceTest, ColdAggregateReportsMissesThenHits) {
  QueryService service(engine_.Snapshot(), {});
  const size_t polys = service.state().regions->NumPolygons();
  const core::AggregateAnswer cold =
      RunAggregate(service, join::AggKind::kCount, core::Attr::kNone, 8.0,
                   core::Mode::kPointIndex);
  EXPECT_EQ(cold.stats.hr_cache_misses, polys);
  const core::AggregateAnswer warm =
      RunAggregate(service, join::AggKind::kCount, core::Attr::kNone, 8.0,
                   core::Mode::kPointIndex);
  EXPECT_EQ(warm.stats.hr_cache_misses, 0u);
  EXPECT_EQ(warm.stats.hr_cache_hits, polys);
}

TEST_F(QueryServiceTest, DrainSurvivesPoisonedQueriesMidBatch) {
  // Regression: Drain used to call future.get() bare — the first
  // throwing query aborted the drain, lost every later result and left
  // the abandoned futures to block elsewhere. Now each failed ticket
  // surfaces as a typed Status in its submission slot and the drain
  // completes.
  QueryService service(engine_.Snapshot(), {});
  const geom::Polygon star =
      dbsa::testing::MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const geom::Polygon degenerate(geom::Ring{{0, 0}, {10, 10}});  // 2 vertices.

  std::vector<Submission> workload;
  workload.push_back({Query::Count(star), Within(8.0)});  // Good.
  workload.push_back({Query::Aggregate(join::AggKind::kSum),
                      Within(8.0)});                      // Poisoned: SUM w/o column.
  workload.push_back({Query::Count(star), Within(8.0)});  // Good.
  workload.push_back({Query::Count(degenerate), Within(8.0)});  // Poisoned: 2 vertices.
  workload.push_back({Query::Select(star), Within(8.0)});       // Good.

  std::vector<uint64_t> tickets;
  for (const Submission& sub : workload) {
    tickets.push_back(service.Submit(sub.query, sub.options));
  }
  const std::vector<Result> results = service.Drain();

  ASSERT_EQ(results.size(), workload.size());  // No ticket lost.
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].ticket, tickets[i]) << "ticket order kept, slot " << i;
    EXPECT_EQ(results[i].kind, workload[i].query.kind()) << "slot " << i;
  }
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results[1].status.message().find("attribute"), std::string::npos)
      << results[1].status.ToString();
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(results[3].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results[3].status.message().find("vertices"), std::string::npos)
      << results[3].status.ToString();
  EXPECT_TRUE(results[4].ok());

  // The good results are untouched by their poisoned neighbours.
  const join::ResultRange want = engine_.CountInPolygon(star, 8.0);
  for (const size_t good : {size_t{0}, size_t{2}}) {
    EXPECT_EQ(results[good].range.lo, want.lo);
    EXPECT_EQ(results[good].range.hi, want.hi);
  }
  EXPECT_EQ(results[4].ids, engine_.SelectInPolygon(star, 8.0));

  // And the service stays fully usable after a poisoned batch.
  service.Submit(Query::Count(star), Within(8.0));
  const std::vector<Result> after = service.Drain();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(after[0].ok());
  EXPECT_EQ(after[0].range.hi, want.hi);
}

TEST_F(QueryServiceTest, SharedSnapshotServesManyServices) {
  // Two services over one snapshot: no copies of the tables or index, and
  // identical answers.
  const std::shared_ptr<const core::EngineState> snapshot = engine_.Snapshot();
  ServiceOptions options;
  options.num_threads = 2;
  QueryService a(snapshot, options);
  QueryService b(snapshot, options);
  const core::AggregateAnswer ra =
      RunAggregate(a, join::AggKind::kSum, core::Attr::kFare, 8.0, core::Mode::kAct);
  const core::AggregateAnswer rb =
      RunAggregate(b, join::AggKind::kSum, core::Attr::kFare, 8.0, core::Mode::kAct);
  ASSERT_EQ(ra.rows.size(), rb.rows.size());
  for (size_t r = 0; r < ra.rows.size(); ++r) {
    EXPECT_EQ(ra.rows[r].value, rb.rows[r].value);
  }
}

TEST_F(QueryServiceTest, AutoModeUsesTheCacheAdvertisement) {
  // Not a determinism check (plans may differ engine-vs-service by
  // design); just that kAuto works end to end and explains itself.
  QueryService service(engine_.Snapshot(), {});
  const core::AggregateAnswer answer =
      RunAggregate(service, join::AggKind::kCount, core::Attr::kNone, 8.0);
  EXPECT_FALSE(answer.stats.explain.empty());
  EXPECT_FALSE(answer.rows.empty());
}

}  // namespace
}  // namespace dbsa::service
