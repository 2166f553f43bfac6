// locate-ieee30: a closed loop of OutageDetector::Detect calls on a
// peeling model (max_outage_lines = 2), mostly on outage samples:
// single outages with complete data, single outages with their
// endpoint nodes dark (plus one or two further dark nodes, so masks
// keep being new and regressor builds stay a steady share of calls),
// double outages simulated at set-up, and a share of normal samples.

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "alloc.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "fixtures.h"
#include "inputs.h"
#include "sim/missing_data.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kNodes = 30;  ///< IEEE-30 buses: the plan's mask size
constexpr size_t kPlanSamples = 65536;
constexpr size_t kPairs = 80;
constexpr size_t kSetupRepeats = 3;

// Output floors, fixed below the first runs of this benchmark (seeds
// 1-5: ia 0.82-0.86, fa 0, set precision 0.96-1, set recall 0.87-0.96).
constexpr QualityFloors kFloors = {.min_ia = 0.75,
                                   .max_fa = 0.05,
                                   .min_set_precision = 0.90,
                                   .min_set_recall = 0.80};

/// Per-layer metrics of layers this workload does not run.
const std::vector<std::string> kNotRun = {"fleet.", "session.",
                                          "powerflow.solve_ac_ms",
                                          "sim.fault_apply_us"};
const std::vector<SampleKind> kAllKinds = {SampleKind::kNormal, SampleKind::kOutage,
                                           SampleKind::kMissing, SampleKind::kMulti};

struct Sample {
  SampleKind kind = SampleKind::kNormal;
  const pw::linalg::Vector* vm = nullptr;
  const pw::linalg::Vector* va = nullptr;
  const pw::sim::MissingMask* mask = nullptr;
  std::vector<pw::grid::LineId> truth;
};

struct Setup {
  std::unique_ptr<Fixture> fixture;
  Columns normal;
  std::vector<Columns> outage;   ///< per single-outage case
  std::vector<Columns> doubles;  ///< per double-outage pair
  std::vector<std::pair<pw::grid::LineId, pw::grid::LineId>> pairs;
  pw::sim::MissingMask complete;
  std::deque<pw::sim::MissingMask> masks;  ///< kMissing masks (stable addresses)
  std::vector<Sample> warmup;
  std::vector<Sample> samples;
  Series simulate_ms{"SimulateMeasurements (double outage)"};
  double setup_s = 0.0;
};

void Materialize(Setup* setup, const std::vector<LocateSpec>& specs,
                 std::vector<Sample>* out) {
  const auto& cases = setup->fixture->dataset.outages;
  const size_t nodes = setup->fixture->grid->num_buses();
  out->resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const LocateSpec& spec = specs[i];
    Sample& sample = (*out)[i];
    sample.kind = spec.kind;
    const Columns* columns = &setup->normal;
    sample.mask = &setup->complete;
    if (spec.kind == SampleKind::kMulti) {
      const size_t p = spec.draw % setup->pairs.size();
      columns = &setup->doubles[p];
      sample.truth = {setup->pairs[p].first, setup->pairs[p].second};
    } else if (spec.kind != SampleKind::kNormal) {
      const size_t c = spec.draw % cases.size();
      columns = &setup->outage[c];
      sample.truth = {cases[c].line};
      if (spec.kind == SampleKind::kMissing) {
        pw::sim::MissingMask mask = pw::sim::MissingAtOutage(nodes, cases[c].line);
        for (uint32_t node : spec.extra_missing) {
          if (node != cases[c].line.i && node != cases[c].line.j) {
            mask.missing[node] = true;
          }
        }
        setup->masks.push_back(std::move(mask));
        sample.mask = &setup->masks.back();
      }
    }
    const size_t column = spec.column_draw % columns->size();
    sample.vm = &columns->vm[column];
    sample.va = &columns->va[column];
  }
}

pw::Result<std::unique_ptr<Setup>> BuildSetup(uint64_t seed) {
  Span span(Layer::kBench);
  const double cpu_start = ProcessCpuS();
  auto setup = std::make_unique<Setup>();
  FixtureSpec spec;
  spec.buses = 30;
  spec.dataset.train_states = 32;
  spec.dataset.train_samples_per_state = 8;
  spec.dataset.test_states = 8;
  spec.dataset.test_samples_per_state = 8;
  // Serial set-up: its timings are metrics, and one busy core is
  // steadier than a pool on a shared host.
  spec.dataset.parallelism = 1;
  spec.detector.parallelism = 1;
  spec.detector.max_outage_lines = 2;
  // The plan's shape (node count) is fixed by the grid, so the plan can
  // be drawn before any data exists.
  const LocatePlan plan = MakeLocatePlan(seed, kNodes, kPlanSamples);
  spec.dataset_seed = kFixtureDatasetSeed;
  PW_ASSIGN_OR_RETURN(setup->fixture, BuildFixture(spec));
  const Fixture& fixture = *setup->fixture;
  const auto& cases = fixture.dataset.outages;
  setup->normal = SplitColumns(fixture.dataset.normal.test);
  for (const auto& c : cases) setup->outage.push_back(SplitColumns(c.test));
  setup->complete = pw::sim::MissingMask::None(fixture.grid->num_buses());

  // Double outages: Grid::WithLineOut twice, then SimulateMeasurements.
  // Pairs that island the grid or do not solve are skipped.
  pw::sim::SimulationOptions sim;
  sim.load.num_states = 4;
  sim.samples_per_state = 8;
  for (size_t i = 0; i < plan.pair_draws.size() && setup->pairs.size() < kPairs; ++i) {
    const size_t a = plan.pair_draws[i].first % cases.size();
    const size_t b = plan.pair_draws[i].second % cases.size();
    if (a == b) continue;
    const auto pair = std::make_pair(cases[a].line, cases[b].line);
    if (std::find(setup->pairs.begin(), setup->pairs.end(), pair) != setup->pairs.end()) {
      continue;
    }
    pw::Result<pw::grid::Grid> outaged = [&] {
      Span grid_span(Layer::kGrid);
      auto first = fixture.grid->WithLineOut(pair.first);
      if (!first.ok()) return first;
      return first->WithLineOut(pair.second);
    }();
    if (!outaged.ok()) continue;
    pw::Rng rng = pw::Rng::Fork(plan.doubles_seed, i);
    Span sim_span(Layer::kSim);
    auto data = pw::sim::SimulateMeasurements(*outaged, sim, rng);
    setup->simulate_ms.Add(sim_span.Stop() / 1e3);
    if (!data.ok()) continue;
    setup->pairs.push_back(pair);
    setup->doubles.push_back(SplitColumns(*data));
  }
  if (setup->pairs.size() < kPairs) {
    return pw::Status::FailedPrecondition("too few valid double-outage pairs");
  }
  Materialize(setup.get(), plan.warmup, &setup->warmup);
  Materialize(setup.get(), plan.samples, &setup->samples);
  setup->setup_s = ProcessCpuS() - cpu_start;
  return setup;
}

struct LoopStats {
  Series latency_ms{"Detect call"};
  DetectPaths paths;
  Quality quality;
  uint64_t failed = 0;
  double cpu_s = 0.0;  ///< the caller thread's CPU time in the loop
};

/// Calls Detect for `seconds`, and on until every path in `needed` has
/// samples enough for a p99.
void RunLoop(Setup& setup, double seconds, const std::vector<SampleKind>& needed,
             size_t* next, LoopStats* stats) {
  pw::detect::OutageDetector& detector = *setup.fixture->detector;
  stats->latency_ms.Reserve(1 << 16);
  const double start = NowUs();
  const double cpu_start = ThreadCpuS();
  while (NowUs() - start < seconds * 1e6 || !stats->paths.Supported(needed)) {
    const Sample& sample = setup.samples[*next % setup.samples.size()];
    ++*next;
    const uint64_t allocs = ThreadAllocCount();
    Span span(Layer::kDetect);
    auto result = detector.Detect(*sample.vm, *sample.va, *sample.mask);
    const double us = span.Stop();
    stats->paths.Add(sample.kind, us, ThreadAllocCount() - allocs);
    stats->latency_ms.Add(us / 1000.0);
    if (!result.ok()) {
      ++stats->failed;
      continue;
    }
    static const std::vector<pw::grid::LineId> kNone;
    const std::vector<pw::grid::LineId>& predicted =
        result->outage_detected ? result->lines : kNone;
    switch (sample.kind) {
      case SampleKind::kNormal:
        stats->quality.Normal(!predicted.empty());
        break;
      case SampleKind::kOutage:
      case SampleKind::kMissing:
        stats->quality.Identified(
            pw::eval::ScoreSample(sample.truth, predicted).identification_accuracy);
        break;
      case SampleKind::kMulti:
        stats->quality.Set(pw::eval::ScoreSet(sample.truth, predicted));
        break;
    }
  }
  stats->cpu_s = ThreadCpuS() - cpu_start;
}

}  // namespace

uint64_t LocatePlanDigest(uint64_t seed) {
  return Digest(MakeLocatePlan(seed, kNodes, kPlanSamples));
}

void RunLocate(const RunOptions& options, Report* report) {
  SetThreadRole(ThreadRole::kMain);
  if (options.trace) MarkNotRun(kNotRun, "locate-ieee30", report);
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Setup> setup;
  auto set_up = [&] {
    setup.reset();
    auto built = BuildSetup(options.seed);
    report->Check(built.ok(), "locate set-up: " + built.status().ToString());
    if (!built.ok()) return false;
    setup = std::move(built).value();
    setup_s.push_back(setup->setup_s);
    build_s.push_back(setup->fixture->build_cpu_s);
    return true;
  };
  if (!set_up()) return;

  // Warm-up: resolve the complete-data regressors before timing.
  for (const Sample& sample : setup->warmup) {
    auto result = setup->fixture->detector->Detect(*sample.vm, *sample.va, *sample.mask);
    static_cast<void>(result);
  }

  size_t next = 0;
  const double half = options.trace ? options.seconds / 2 : options.seconds;
  LoopStats untraced, traced;
  Tracer::Get().Disable();
  RunLoop(*setup, half, {}, &next, &untraced);
  std::map<std::string, uint64_t> before, after;
  if (options.trace) {
    Tracer::Get().Resume();
    before = CounterSnapshot();
    RunLoop(*setup, half, kAllKinds, &next, &traced);
    after = CounterSnapshot();
    Tracer::Get().Disable();
  }

  // Quality is scored over every call of the run.
  Quality quality = untraced.quality;
  quality.Merge(traced.quality);
  report->attempted = untraced.paths.calls + traced.paths.calls;
  report->failed = untraced.failed + traced.failed;
  report->Check(report->failed == 0, "every Detect call succeeded");
  ReportQuality(quality, kFloors, !options.trace, report);
  report->SetPercentile("latency_p50_ms", untraced.latency_ms, 0.50);
  report->SetPercentile("latency_p99_ms", untraced.latency_ms, 0.99);
  if (!options.trace) {
    // The set-up is repeated after the loop, only to time it: the host's
    // speed drifts over seconds, and repetitions spread over the run
    // sample more of that drift than back-to-back ones.
    for (size_t r = 1; r < kSetupRepeats; ++r) {
      if (!set_up()) return;
    }
    report->SetMedian("setup_s", setup_s);
    report->Set("throughput_per_s", untraced.paths.calls / untraced.cpu_s);
    report->SetMedian("model_build_s", build_s);
    report->Set("model_mb", setup->fixture->model_bytes / 1e6);
    report->Set("peak_rss_mb", PeakRssMb());
    return;
  }

  ReportDetectPaths(traced.paths, report);
  report->Set("detect.train_s", setup->fixture->train_s);
  report->Set("detect.save_ms", setup->fixture->save_ms);
  report->Set("detect.load_ms", setup->fixture->load_ms);
  report->Set("eval.build_dataset_s", setup->fixture->dataset_s);
  report->Set("sim.simulate_ms", Median(setup->simulate_ms.values()));
  ReportCounterDeltas(before, after, traced.paths.calls, report);
  report->Set("proximity.cache_entries",
              static_cast<double>(setup->fixture->detector->proximity_cache_size()));
  ReportTraceOverhead(ComputePercentile(untraced.latency_ms, 0.5).value,
                      ComputePercentile(traced.latency_ms, 0.5).value, report);
  ReportSpanTotals(report);
}

}  // namespace perfbench
