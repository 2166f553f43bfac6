#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// "end_to_end", same order).
const std::vector<MetricDef>& EndToEndMetrics();
/// The per-layer metrics every traced run reports (BENCHMARK.json
/// "per_layer", same order). A layer a workload does not run reports 0.
const std::vector<MetricDef>& PerLayerMetrics();

/// Collects one run's metrics, output checks, and human-readable notes,
/// and renders the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value);
  /// Reports the median of repeated measurements (set-ups, builds) and
  /// prints every one beside it.
  void SetMedian(const std::string& name, const std::vector<double>& values);
  /// Reports 0 for a metric of a layer this workload does not run, with
  /// the reason shown beside it. Only the workload's own list of layers
  /// it does not run is marked this way (see MarkNotRun).
  void SetNotExercised(const std::string& name, const std::string& why);
  bool exercised(const std::string& name) const {
    return not_exercised_.count(name) == 0;
  }
  /// Reports the q-percentile of `series` under `name`, with its sample
  /// count. The percentile is self-checked to lie within the series'
  /// [min, max] and to have at least kMinBeyond samples beyond it; a
  /// failed self-check fails the run.
  void SetPercentile(const std::string& name, const Series& series, double q);
  /// Records an output check; any failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Note(const std::string& line);

  bool correct() const { return failed_checks_ == 0; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Prints notes, checks, and every metric of `defs` with its unit
  /// (to stdout), then the final JSON line with exactly those metrics.
  /// A metric of `defs` nobody set is a failed check.
  void Print(const std::vector<MetricDef>& defs);

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> provenance_;
  std::set<std::string> not_exercised_;
  std::vector<std::string> notes_;
  size_t failed_checks_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
