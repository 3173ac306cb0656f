// The end-to-end run: repeated set-up (setup_s is the median), the
// oracle off the clock, then kClients closed-loop clients against
// QueryService for the requested seconds, every answer checked after
// the timed window. Tracing is off in the service throughout.

#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

#include "report.h"
#include "workload.h"

namespace perfbench {

RunReport RunEndToEnd(const Inputs& inputs, const Scale& scale, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_
