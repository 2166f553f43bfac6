#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "inputs.h"
#include "report.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Each workload sets up, measures for about `seconds`, checks its
/// outputs, and fills `report` with the end-to-end metrics (untraced)
/// or the per-layer metrics (traced). A traced run measures half of the
/// time untraced and half traced, and reports the difference as
/// bench.trace_overhead_pct.
void RunStream(const RunOptions& options, Report* report);
void RunLocate(const RunOptions& options, Report* report);
void RunBuild(const RunOptions& options, Report* report);

/// Digest of the whole input plan a workload draws from `seed`, at the
/// workload's own sizing (0 when the plan cannot be drawn).
uint64_t StreamPlanDigest(uint64_t seed);
uint64_t LocatePlanDigest(uint64_t seed);
uint64_t BuildPlanDigest(uint64_t seed);

/// Checks that the workload's plan depends only on the seed: the same
/// seed twice gives identical inputs, the next seed different ones.
void CheckPlanDeterminism(uint64_t (*digest)(uint64_t), uint64_t seed,
                          Report* report);

// --- helpers shared by the workloads ---

/// Marks every per-layer metric whose name starts with one of
/// `prefixes` (the layers and paths `workload` does not run) as not
/// exercised. Every other per-layer metric must be measured.
void MarkNotRun(const std::vector<std::string>& prefixes,
                const std::string& workload, Report* report);

/// Output-quality tallies against the plan's truth: Eq. 12
/// identification accuracy, false alarms on normal data, and exact-set
/// scores of the reported lines.
struct Quality {
  double ia_sum = 0.0;
  size_t ia_n = 0;
  size_t normal_n = 0;
  size_t normal_flagged = 0;
  double precision_sum = 0.0;
  double recall_sum = 0.0;
  size_t set_n = 0;
  size_t set_exact = 0;

  void Identified(double accuracy) {
    ia_sum += accuracy;
    ++ia_n;
  }
  void Normal(bool flagged) {
    ++normal_n;
    normal_flagged += flagged ? 1 : 0;
  }
  void Set(const pw::eval::SetMetrics& m) {
    precision_sum += m.precision;
    recall_sum += m.recall;
    ++set_n;
    set_exact += m.precision == 1.0 && m.recall == 1.0;
  }
  void Merge(const Quality& o);
  double ia() const { return ia_n == 0 ? 0.0 : ia_sum / ia_n; }
  /// 1 without normal data, so the floor check fails.
  double fa() const {
    return normal_n == 0 ? 1.0 : static_cast<double>(normal_flagged) / normal_n;
  }
  double precision() const { return set_n == 0 ? 0.0 : precision_sum / set_n; }
  double recall() const { return set_n == 0 ? 0.0 : recall_sum / set_n; }
};

/// A workload's output floors, fixed below its first runs.
struct QualityFloors {
  double min_ia;
  double max_fa;
  double min_set_precision;
  double min_set_recall;
};

/// Checks `quality` against `floors`; with `end_to_end`, also reports
/// ia, specificity (1 - fa), set_precision and set_recall.
void ReportQuality(const Quality& quality, const QualityFloors& floors,
                   bool end_to_end, Report* report);

/// Detect call timings by verdict path, and the caller thread's
/// allocations inside those calls.
struct DetectPaths {
  Series us[kNumKinds] = {Series{"Detect normal"}, Series{"Detect outage"},
                          Series{"Detect missing"}, Series{"Detect multi"}};
  uint64_t calls = 0;
  uint64_t allocs = 0;

  void Add(SampleKind kind, double call_us, uint64_t call_allocs) {
    us[static_cast<size_t>(kind)].Add(call_us);
    ++calls;
    allocs += call_allocs;
  }
  /// True when every path in `kinds` can support a p99.
  bool Supported(const std::vector<SampleKind>& kinds) const;
};

/// detect.<path>.us.p50/.p99 and .share for every path the workload runs
/// (those not marked by MarkNotRun), and detect.allocs_per_sample.
void ReportDetectPaths(const DetectPaths& paths, Report* report);


/// <layer>.self_ms / <layer>.span_count from the recorded spans, plus
/// bench.spans; a span buffer overflow is a failed check.
void ReportSpanTotals(Report* report);

/// Program-counter metrics read as deltas of two MetricsRegistry
/// snapshots taken around a timed phase of `samples` detections.
void ReportCounterDeltas(const std::map<std::string, uint64_t>& before,
                         const std::map<std::string, uint64_t>& after,
                         uint64_t samples, Report* report);

/// (traced / untraced - 1) * 100 for the same per-operation median.
void ReportTraceOverhead(double untraced, double traced, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
