// Helpers shared by the workloads, and the plan self-test.

#include <algorithm>
#include <cstdio>

#include "fixtures.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

void MarkNotRun(const std::vector<std::string>& prefixes,
                const std::string& workload, Report* report) {
  for (const MetricDef& def : PerLayerMetrics()) {
    const std::string name = def.name;
    for (const std::string& prefix : prefixes) {
      if (name.compare(0, prefix.size(), prefix) == 0) {
        report->SetNotExercised(name, "not run by " + workload);
      }
    }
  }
}

void Quality::Merge(const Quality& o) {
  ia_sum += o.ia_sum;
  ia_n += o.ia_n;
  normal_n += o.normal_n;
  normal_flagged += o.normal_flagged;
  precision_sum += o.precision_sum;
  recall_sum += o.recall_sum;
  set_n += o.set_n;
  set_exact += o.set_exact;
}

void ReportQuality(const Quality& quality, const QualityFloors& floors,
                   bool end_to_end, Report* report) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "quality: %zu identification scores; fa %zu/%zu normal; "
                "%zu/%zu sets exact",
                quality.ia_n, quality.normal_flagged, quality.normal_n,
                quality.set_exact, quality.set_n);
  report->Note(line);
  report->Check(quality.ia() >= floors.min_ia,
                "ia >= " + std::to_string(floors.min_ia));
  report->Check(quality.fa() <= floors.max_fa,
                "fa <= " + std::to_string(floors.max_fa));
  report->Check(quality.precision() >= floors.min_set_precision,
                "set_precision >= " + std::to_string(floors.min_set_precision));
  report->Check(quality.recall() >= floors.min_set_recall,
                "set_recall >= " + std::to_string(floors.min_set_recall));
  if (!end_to_end) return;
  report->Set("ia", quality.ia());
  report->Set("specificity", 1.0 - quality.fa());
  report->Set("set_precision", quality.precision());
  report->Set("set_recall", quality.recall());
}

bool DetectPaths::Supported(const std::vector<SampleKind>& kinds) const {
  for (SampleKind kind : kinds) {
    if (us[static_cast<size_t>(kind)].size() < MinSamplesFor(0.99)) return false;
  }
  return true;
}

void ReportDetectPaths(const DetectPaths& paths, Report* report) {
  for (size_t kind = 0; kind < kNumKinds; ++kind) {
    const std::string prefix =
        std::string("detect.") + KindName(static_cast<SampleKind>(kind));
    if (!report->exercised(prefix + ".share")) continue;
    report->SetPercentile(prefix + ".us.p50", paths.us[kind], 0.50);
    report->SetPercentile(prefix + ".us.p99", paths.us[kind], 0.99);
    report->Set(prefix + ".share", static_cast<double>(paths.us[kind].size()) /
                                       std::max<uint64_t>(1, paths.calls));
  }
  report->Set("detect.allocs_per_sample",
              static_cast<double>(paths.allocs) / std::max<uint64_t>(1, paths.calls));
}

void ReportSpanTotals(Report* report) {
  const Tracer& tracer = Tracer::Get();
  const auto totals = tracer.Totals();
  for (size_t i = 0; i < totals.size(); ++i) {
    const std::string layer = LayerName(static_cast<Layer>(i));
    report->Set(layer + ".self_ms", totals[i].self_ms);
    report->Set(layer + ".span_count", static_cast<double>(totals[i].spans));
  }
  report->Set("bench.spans", static_cast<double>(tracer.recorded()));
  report->Check(tracer.dropped() == 0,
                "span buffer held every span (" +
                    std::to_string(tracer.dropped()) + " dropped)");
}

void ReportCounterDeltas(const std::map<std::string, uint64_t>& before,
                         const std::map<std::string, uint64_t>& after,
                         uint64_t samples, Report* report) {
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  const double per = samples == 0 ? 0.0 : 1.0 / static_cast<double>(samples);
  report->Set("proximity.regressor_applications_per_sample",
              delta("proximity.regressor_applications") * per);
  report->Set("proximity.regressor_builds_per_sample",
              delta("proximity.regressor_builds") * per);
  const double evaluations = delta("proximity.evaluations");
  report->Set("proximity.cache_hit_ratio",
              evaluations == 0 ? 0.0 : delta("proximity.cache_hits") / evaluations);
  const double solves = delta("powerflow.ac.solves");
  report->Set("powerflow.ac_solves", solves);
  report->Set("powerflow.ac_iterations_per_solve",
              solves == 0 ? 0.0 : delta("powerflow.ac.iterations_total") / solves);
  report->Set("obs.spans_dropped", delta("trace.spans_dropped"));
  report->Set("pool.tasks_executed", delta("pool.tasks_executed"));
}

void ReportTraceOverhead(double untraced, double traced, Report* report) {
  report->Set("bench.trace_overhead_pct",
              untraced <= 0.0 ? 0.0 : (traced / untraced - 1.0) * 100.0);
  char line[160];
  std::snprintf(line, sizeof(line),
                "tracing overhead: per-operation median %.6g untraced vs %.6g "
                "traced (same units)",
                untraced, traced);
  report->Note(line);
}

void CheckPlanDeterminism(uint64_t (*digest)(uint64_t), uint64_t seed,
                          Report* report) {
  const uint64_t a = digest(seed), b = digest(seed), c = digest(seed + 1);
  char line[200];
  std::snprintf(line, sizeof(line),
                "inputs depend only on the seed (digests %016llx, %016llx; "
                "seed+1 %016llx)",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(c));
  report->Check(a != 0 && a == b && a != c, line);
}

}  // namespace perfbench
