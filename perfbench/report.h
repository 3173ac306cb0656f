// What one benchmark run reports: named metrics with their units and
// sample counts, the attempted/failed tallies, and why it failed if it did.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 when it is a single measurement).
  size_t n = 0;
};

struct RunReport {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  /// Non-empty: the run is not correct and exits non-zero.
  std::vector<std::string> errors;
  /// Human-readable context printed before the result line.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t n = 0) {
    metrics.push_back(Metric{name, value, unit, n});
  }
  bool correct() const { return errors.empty() && failed == 0; }
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
