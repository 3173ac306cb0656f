// Reference answers of a workload, computed off the clock and outside
// setup_s: the byte-identity reference is the single-threaded engine path
// (core::ExecuteCount / ExecuteSelect / ExecuteAggregate) for each
// distinct request; the exact count of each viewport comes from a
// rectangle test (cross-checked against ErrorBound::Exact() on a sample),
// and exact region aggregates from the engine's exact plan.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine_state.h"
#include "service/query.h"
#include "workload.h"

namespace perfbench {

/// 64-bit digests of answer payloads (their exact bytes).
uint64_t Digest(const dbsa::join::ResultRange& range);
uint64_t Digest(const std::vector<uint32_t>& ids);
uint64_t Digest(const std::vector<dbsa::core::AggregateRow>& rows);
/// Digest of the payload field of `result` matching its kind.
uint64_t Digest(const dbsa::service::Result& result);

struct Expected {
  uint64_t digest = 0;
  /// COUNT/SELECT: points exactly inside the viewport.
  double exact = 0.0;
  /// COUNT: (hi - lo) / max(exact, 1) of the reference range.
  double width_rel = 0.0;
  /// Empty when the reference answer honours its bound.
  std::string error;
};

/// One Expected per entry of inputs.distinct, computed on `threads`
/// threads against `engine`.
std::vector<Expected> BuildOracle(const dbsa::core::EngineState& engine,
                                  const Inputs& inputs, size_t threads);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
