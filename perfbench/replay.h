// The traced run. Separate from the end-to-end runs, with one client: it
// replays a prefix of the workload's seeded request sequence through each
// layer's public functions, from the benchmark's own code, and records a
// span around every call (layer, start, end, parent, query id) plus the
// counts at the same boundaries. Spans stay in memory until the run ends.
//
//   cache    its own ApproxCache with the workload's budget
//   raster   HierarchicalRaster::BuildLevel inside the cache's builder
//   index    PointIndex::QueryCells / SelectIds
//   router   ShardRouter (ExecuteCount / ExecuteSelect / ExecuteAggregate)
//            over a timing Transport wrapping a SocketTransport
//   carrier  Transport::Send to its completion
//   server   ShardServer::Handle, through the cluster's wrap_primary seam
//
// Route (MakeRoutes + SurvivingShards), the shard-side index probe and
// the wire codecs are re-run on the captured HRs and frames after each
// request, off the replay clock, to split the router's and servers' time.
// Every replayed answer must be byte-identical to the QueryService answer
// for the same request, or the run fails.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>

#include "report.h"
#include "workload.h"

namespace perfbench {

/// `spans_out`, when non-empty, receives every span as TSV at the end.
RunReport RunTraced(const Inputs& inputs, const Scale& scale,
                    const std::string& spans_out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
