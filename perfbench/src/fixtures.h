#ifndef PERFBENCH_FIXTURES_H_
#define PERFBENCH_FIXTURES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "detect/detector.h"
#include "eval/dataset.h"
#include "grid/grid.h"
#include "linalg/matrix.h"
#include "sim/measurement.h"
#include "sim/pmu_network.h"

namespace perfbench {

namespace pw = ::phasorwatch;

/// Dataset seed of the IEEE-30 detector fixture that the stream and
/// locate workloads query (see inputs.h).
inline constexpr uint64_t kFixtureDatasetSeed = 30;

/// Sizing of one trained detector fixture.
struct FixtureSpec {
  int buses = 30;
  pw::eval::DatasetOptions dataset;
  pw::detect::DetectorOptions detector;
  uint64_t dataset_seed = 0;
};

/// A deployed detector: the grid and PMU network it runs on, the corpus
/// it was trained from, and the model as reloaded from its own saved
/// bytes (the control-center path: train offline, Save, Load).
struct Fixture {
  std::unique_ptr<pw::grid::Grid> grid;
  std::unique_ptr<pw::sim::PmuNetwork> network;
  pw::eval::Dataset dataset;
  std::shared_ptr<pw::detect::OutageDetector> detector;
  double dataset_s = 0.0;
  double train_s = 0.0;
  /// CPU seconds of BuildDataset + Train, summed over every thread of
  /// the process (thread-pool workers included).
  double build_cpu_s = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  size_t model_bytes = 0;
};

/// EvaluationSystem(buses) -> PmuNetwork::Build -> BuildDataset ->
/// OutageDetector::Train -> Save -> Load, each call timed (and traced).
pw::Result<std::unique_ptr<Fixture>> BuildFixture(const FixtureSpec& spec);

/// The grid and its default PMU network (the plans' shape source).
pw::Status LoadGrid(int buses, std::unique_ptr<pw::grid::Grid>* grid,
                    std::unique_ptr<pw::sim::PmuNetwork>* network);

/// Every column of a data set as ready (vm, va) vectors, so timed loops
/// pass existing vectors instead of slicing (and allocating) per call.
struct Columns {
  std::vector<pw::linalg::Vector> vm;
  std::vector<pw::linalg::Vector> va;
  size_t size() const { return vm.size(); }
};
Columns SplitColumns(const pw::sim::PhasorDataSet& data);

/// Snapshot of the program's own counters (MetricsRegistry), traced as
/// an obs call.
std::map<std::string, uint64_t> CounterSnapshot();
/// after[name] - before[name] (0 when absent).
uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURES_H_
