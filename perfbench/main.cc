// Entry point of the repository benchmark (see BENCHMARK.json; perfbench/run.py
// builds and runs it).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE]
//   perfbench --self-check [--seed N]
//
// --trace 0 runs the end-to-end measurement and reports the end-to-end
// metrics; --trace 1 runs the traced replay and reports the per-layer
// metrics. Human-readable lines come first; the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}. The
// exit code is 0 only when every answer was correct.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "closed_loop.h"
#include "replay.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Every end-to-end metric, in output order (BENCHMARK.json end_to_end).
const char* const kEndToEndMetrics[] = {
    "qps",           "count_p50_ms",  "count_p99_ms",    "agg_p50_ms", "agg_p90_ms",
    "select_p50_ms", "select_p90_ms", "range_width_rel", "setup_s",    "peak_rss_mb"};

/// Every per-layer metric (BENCHMARK.json per_layer).
const char* const kPerLayerMetrics[] = {
    "service.self_ms",        "cache.hit_ratio",        "cache.evictions_per_query",
    "cache.lookup_us",        "raster.build_ms",        "raster.builds_per_query",
    "raster.cells_per_build", "index.probe_ms",         "index.cells_per_query",
    "index.searches_per_cell", "route.ms",              "route.shards_per_query",
    "router.self_ms",         "wire.encode_us",         "wire.decode_us",
    "wire.bytes_per_query",   "carrier.rtt_ms",         "carrier.net_ms",
    "carrier.messages_per_query", "carrier.resends_per_query", "server.handle_ms",
    "server.cache_hit_ratio", "snapshot.load_ms",       "setup.dataset_ms",
    "setup.engine_build_ms",  "setup.warm_ms",          "trace.unaccounted_share"};

/// Traced-run counts that must repeat exactly for a fixed seed.
const char* const kDeterministicCounts[] = {
    "index.searches_per_cell", "raster.cells_per_build", "route.shards_per_query",
    "wire.bytes_per_query", "cache.hit_ratio"};

void PrintReport(const char* workload, bool trace, const RunReport& report) {
  std::printf("workload %s (%s)\n", workload, trace ? "traced replay" : "end to end");
  for (const std::string& note : report.notes) std::printf("  %s\n", note.c_str());
  for (const Metric& m : report.metrics) {
    if (m.n > 0) {
      std::printf("  %-28s %16.6f %-10s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.n);
    } else {
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& e : report.errors) std::printf("  ERROR: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              report.correct() ? "true" : "false", report.attempted, report.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The names `report` must carry, each exactly once and with a unit.
bool HasExactly(const RunReport& report, const char* const* names, size_t n,
                std::string* why) {
  std::multiset<std::string> seen;
  for (const Metric& m : report.metrics) {
    if (m.unit.empty()) *why += " " + m.name + " has no unit;";
    seen.insert(m.name);
  }
  for (size_t i = 0; i < n; ++i) {
    if (seen.count(names[i]) != 1) *why += std::string(" ") + names[i] + " missing;";
  }
  if (seen.size() != n) *why += " unexpected extra metrics;";
  return why->empty();
}

double Value(const RunReport& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return m.value;
  }
  return NAN;
}

/// Runs every workload at small scale: the end-to-end run and two traced
/// runs with the same seed. Checks that every metric is emitted with its
/// unit, the named traced counts repeat exactly, and nothing failed.
int SelfCheck(uint64_t seed) {
  const Scale scale = Scale::Small();
  bool ok = true;
  for (WorkloadId w : {WorkloadId::kDashboardWarm, WorkloadId::kAdhocChurn,
                       WorkloadId::kClusterTcp}) {
    const Inputs inputs = MakeInputs(w, scale, seed);
    const RunReport e2e = RunEndToEnd(inputs, scale, 3.0);
    const RunReport t1 = RunTraced(inputs, scale, "");
    const RunReport t2 = RunTraced(inputs, scale, "");
    std::string why;
    HasExactly(e2e, kEndToEndMetrics, std::size(kEndToEndMetrics), &why);
    HasExactly(t1, kPerLayerMetrics, std::size(kPerLayerMetrics), &why);
    for (const RunReport* r : {&e2e, &t1, &t2}) {
      if (!r->correct()) {
        why += " " + std::to_string(r->failed) + " failed answers";
        for (const std::string& e : r->errors) why += "; " + e;
      }
    }
    for (const char* name : kDeterministicCounts) {
      const double a = Value(t1, name);
      const double b = Value(t2, name);
      if (!(a == b)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), " %s differs across traced runs (%.17g vs %.17g);",
                      name, a, b);
        why += buf;
      }
    }
    std::printf("self-check %-15s %s%s\n", WorkloadName(w), why.empty() ? "PASS" : "FAIL:",
                why.c_str());
    ok = ok && why.empty();
  }
  return ok ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dashboard_warm|adhoc_churn|cluster_tcp --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n"
               "       %s --self-check [--seed N]\n",
               argv0, argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  bool self_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-check") {
      self_check = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  const uint64_t seed = flags.count("seed") ? std::strtoull(flags["seed"].c_str(), nullptr, 10) : 1;
  if (self_check) return SelfCheck(seed);

  WorkloadId workload;
  if (!flags.count("workload") || !ParseWorkload(flags["workload"], &workload) ||
      !flags.count("seconds") || !flags.count("trace")) {
    return Usage(argv[0]);
  }
  const double seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  const bool trace = flags["trace"] == "1";
  if (!(seconds > 0.0)) return Usage(argv[0]);

  const Scale scale = Scale::Full();
  const Inputs inputs = MakeInputs(workload, scale, seed);
  const RunReport report = trace ? RunTraced(inputs, scale, flags["spans-out"])
                                 : RunEndToEnd(inputs, scale, seconds);
  PrintReport(WorkloadName(workload), trace, report);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
