// Workload definitions of the repository benchmark: the seeded request
// tables and sequences of each workload, and the set-up that stands the
// serving system up for them (dataset, engine or snapshot-loaded cluster,
// QueryService, cache warm-up with its warm-state assertion).
//
// The program under test only ever receives the generated inputs: every
// request sequence is drawn from the workload seed before any clock
// starts.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine_state.h"
#include "core/sharded_state.h"
#include "service/query.h"
#include "service/query_service.h"
#include "service/socket_cluster.h"

namespace perfbench {

enum class WorkloadId { kDashboardWarm, kAdhocChurn, kClusterTcp };

const char* WorkloadName(WorkloadId workload);
bool ParseWorkload(const std::string& name, WorkloadId* out);
bool IsCluster(WorkloadId workload);

/// Input sizes. Full() is the benchmark proper; Small() backs the
/// self-check, which must run every workload in seconds.
struct Scale {
  size_t points = 0;
  size_t regions = 0;
  size_t saved_viewports = 0;  ///< dashboard_warm and cluster_tcp.
  size_t adhoc_pool = 0;       ///< adhoc_churn viewport pool.
  size_t adhoc_warm = 0;       ///< adhoc_churn warm-up requests.
  size_t trace_prefix = 0;     ///< Requests replayed by the traced run.
  size_t trace_prefix_cluster = 0;
  int setup_reps = 0;          ///< Set-ups per run; setup_s is their median.
  size_t sequence_length = 0;  ///< Pre-generated requests per client.

  static Scale Full();
  static Scale Small();
};

inline constexpr size_t kClients = 4;
inline constexpr size_t kServiceThreads = 4;
inline constexpr size_t kShards = 4;
/// Dataset generation stamped on the snapshot set of cluster_tcp.
inline constexpr uint64_t kEpoch = 11;
inline constexpr size_t kDashboardCacheBytes = size_t{256} << 20;
/// ServiceOptions' default budget: adhoc_churn runs the stock cache.
inline constexpr size_t kAdhocCacheBytes = size_t{64} << 20;
/// Per-shard cell-cache budget of cluster_tcp's shard servers.
inline constexpr size_t kShardCacheBytes = size_t{64} << 20;

/// One distinct request; sequences index into a table of these.
struct Request {
  dbsa::service::Query query;
  dbsa::service::ExecOptions options;
  /// Index into Inputs::viewports (COUNT/SELECT), -1 for aggregates.
  int viewport = -1;
};

struct Inputs {
  WorkloadId workload = WorkloadId::kDashboardWarm;
  dbsa::geom::Box universe;
  std::vector<dbsa::geom::Box> viewports;
  std::vector<Request> distinct;
  /// Closed-loop sequences, one per client (indices into `distinct`).
  std::vector<std::vector<uint32_t>> client_sequences;
  /// Set-up pass run before timing (and replayed before the trace).
  std::vector<uint32_t> warm_sequence;
  /// The prefix the traced run replays (client 0's sequence head).
  std::vector<uint32_t> trace_sequence;
  size_t cache_budget_bytes = 0;
};

Inputs MakeInputs(WorkloadId workload, const Scale& scale, uint64_t seed);

/// Wall time of each set-up phase of one set-up.
struct SetupTimes {
  double dataset_ms = 0.0;       ///< Point and region generation.
  double engine_build_ms = 0.0;  ///< Engine state (+ shard cut, snapshot set).
  double snapshot_load_ms = 0.0; ///< Parse + AssembleClusterState.
  double standup_ms = 0.0;       ///< Listeners + QueryService.
  double warm_ms = 0.0;          ///< Cache warm-up and its assertion pass.
  size_t cache_bytes = 0;        ///< ApproxCache bytes held after warm-up.
  double total_s = 0.0;
};

/// Wraps shard s's primary handler (the traced run's server spans).
using HandlerWrap = std::function<dbsa::service::ShardListener::Handler(
    size_t, dbsa::service::ShardListener::Handler)>;

/// The running system of one workload. Member order is destruction
/// order in reverse: the service (client) goes before the cluster.
struct Deployment {
  /// Built straight from the tables; the oracle's engine.
  std::shared_ptr<const dbsa::core::EngineState> reference;
  /// cluster_tcp: the snapshot-assembled state the cluster serves.
  std::shared_ptr<const dbsa::core::ShardedState> sharded;
  std::unique_ptr<dbsa::service::InProcessShardCluster> cluster;
  std::unique_ptr<dbsa::service::QueryService> service;
  SetupTimes times;
  /// Empty when set-up succeeded and the warm state held; otherwise why
  /// the run must fail.
  std::string setup_error;
};

/// Stands the workload's system up and warms it. `wrap` may be empty.
std::unique_ptr<Deployment> SetUp(const Inputs& inputs, const Scale& scale,
                                  const HandlerWrap& wrap);

/// Executes `ids` once each on `threads` client threads; returns how
/// many answers were not OK.
size_t RunPass(dbsa::service::QueryService& service, const Inputs& inputs,
               const std::vector<uint32_t>& ids, size_t threads);

/// Reference-request cache outcomes summed over a cluster's shard servers.
struct ShardCacheTotals {
  uint64_t hits = 0;
  uint64_t misses = 0;  ///< Answered kNotCached.
};
ShardCacheTotals SumShardCaches(const dbsa::service::InProcessShardCluster& cluster);

/// Closed axis-aligned polygon of a viewport box.
dbsa::geom::Polygon BoxPolygon(const dbsa::geom::Box& box);

double Median(std::vector<double> xs);
double PeakRssMb();
double NowUs();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
