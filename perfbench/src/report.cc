#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"model_build_s", "s"},
      {"ia", "ratio"},
      {"specificity", "ratio"},
      {"set_precision", "ratio"},
      {"set_recall", "ratio"},
      {"model_mb", "MB"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"fleet.submit_us.p50", "us"},
        {"fleet.submit_us.p99", "us"},
        {"fleet.shed_ratio", "ratio"},
        {"fleet.shard_skew", "ratio"},
        {"fleet.queue_high_water", "count"},
        {"fleet.allocs_per_frame.producer", "count"},
        {"fleet.allocs_per_frame.drain", "count"},
        {"fleet.generator_lag_ms.p99", "ms"},
        {"session.process_frame_us.p50", "us"},
        {"session.process_frame_us.p99", "us"},
        {"session.rejected_ratio", "ratio"},
        {"detect.normal.us.p50", "us"},
        {"detect.normal.us.p99", "us"},
        {"detect.normal.share", "ratio"},
        {"detect.outage.us.p50", "us"},
        {"detect.outage.us.p99", "us"},
        {"detect.outage.share", "ratio"},
        {"detect.missing.us.p50", "us"},
        {"detect.missing.us.p99", "us"},
        {"detect.missing.share", "ratio"},
        {"detect.multi.us.p50", "us"},
        {"detect.multi.us.p99", "us"},
        {"detect.multi.share", "ratio"},
        {"detect.allocs_per_sample", "count"},
        {"detect.train_s", "s"},
        {"detect.save_ms", "ms"},
        {"detect.load_ms", "ms"},
        {"proximity.regressor_applications_per_sample", "count"},
        {"proximity.regressor_builds_per_sample", "count"},
        {"proximity.cache_hit_ratio", "ratio"},
        {"proximity.cache_entries", "count"},
        {"eval.build_dataset_s", "s"},
        {"powerflow.ac_solves", "count"},
        {"powerflow.ac_iterations_per_solve", "count"},
        {"powerflow.solve_ac_ms", "ms"},
        {"sim.simulate_ms", "ms"},
        {"sim.fault_apply_us", "us"},
        {"obs.spans_dropped", "count"},
        {"pool.tasks_executed", "count"},
        // End-to-end latency, printed by every run but not bounded: on a
        // contended host it does not hold steady (perfbench/README.md).
        {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"bench.trace_overhead_pct", "%"},
        {"bench.spans", "count"},
    };
    // Self time and span count per layer, from the benchmark's spans.
    static const char* const kLayers[] = {"grid", "sim",     "powerflow",
                                          "eval", "detect",  "session",
                                          "fleet", "obs",    "bench"};
    static std::vector<std::string> names;
    names.reserve(2 * std::size(kLayers));
    for (const char* layer : kLayers) {
      names.push_back(std::string(layer) + ".self_ms");
      names.push_back(std::string(layer) + ".span_count");
    }
    for (size_t i = 0; i < names.size(); ++i) {
      d.push_back({names[i].c_str(), i % 2 == 0 ? "ms" : "count"});
    }
    return d;
  }();
  return defs;
}

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
  provenance_.erase(name);
}

void Report::SetMedian(const std::string& name,
                       const std::vector<double>& values) {
  std::string all = "median of";
  for (double v : values) {
    char value[32];
    std::snprintf(value, sizeof(value), " %.4g", v);
    all += value;
  }
  values_[name] = Median(values);
  provenance_[name] = all;
}

void Report::SetNotExercised(const std::string& name, const std::string& why) {
  values_[name] = 0.0;
  provenance_[name] = why;
  not_exercised_.insert(name);
}

void Report::SetPercentile(const std::string& name, const Series& series,
                           double q) {
  const Percentile p = ComputePercentile(series, q);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "p%g of %s: n=%zu, %zu beyond, min=%.6g max=%.6g", q * 100,
                series.name().c_str(), p.n, p.beyond, p.min, p.max);
  Check(p.beyond >= kMinBeyond,
        name + " has >= " + std::to_string(kMinBeyond) +
            " samples beyond it (n=" + std::to_string(p.n) + ", needs n >= " +
            std::to_string(MinSamplesFor(q)) + ")");
  Check(p.n > 0 && p.value >= p.min && p.value <= p.max,
        name + " lies within the [min, max] of its samples");
  provenance_[name] = buf;
  values_[name] = p.value;
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) ++failed_checks_;
  notes_.push_back(std::string(ok ? "check ok:     " : "CHECK FAILED: ") +
                   what);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print(const std::vector<MetricDef>& defs) {
  for (const MetricDef& def : defs) {
    auto it = values_.find(def.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      Check(false, std::string("metric ") + def.name + " was measured");
      values_[def.name] = 0.0;
    }
  }
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  auto print = [&](const std::string& name, const std::string& label,
                   const char* unit) {
    auto prov = provenance_.find(name);
    std::printf("  %-44s %14.6g %-6s %s\n", label.c_str(), values_.at(name),
                unit, prov == provenance_.end() ? "" : prov->second.c_str());
  };
  for (const MetricDef& def : defs) print(def.name, def.name, def.unit);
  // Measured but outside this mode's metric list (not in the JSON line).
  for (const auto& [name, value] : values_) {
    bool listed = false;
    for (const MetricDef& def : defs) listed = listed || name == def.name;
    if (listed) continue;
    const char* unit = "";
    for (const auto* all : {&EndToEndMetrics(), &PerLayerMetrics()}) {
      for (const MetricDef& def : *all) {
        if (name == def.name) unit = def.unit;
      }
    }
    print(name, name + " (not in JSON)", unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, values_[defs[i].name],
                defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
