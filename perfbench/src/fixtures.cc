#include "fixtures.h"

#include <sys/resource.h>

#include <sstream>

#include "grid/ieee_cases.h"
#include "obs/metrics.h"
#include "spans.h"

namespace perfbench {

pw::Status LoadGrid(int buses, std::unique_ptr<pw::grid::Grid>* grid,
                    std::unique_ptr<pw::sim::PmuNetwork>* network) {
  {
    Span span(Layer::kGrid);
    PW_ASSIGN_OR_RETURN(pw::grid::Grid g, pw::grid::EvaluationSystem(buses));
    *grid = std::make_unique<pw::grid::Grid>(std::move(g));
  }
  Span span(Layer::kSim);
  PW_ASSIGN_OR_RETURN(
      pw::sim::PmuNetwork n,
      pw::sim::PmuNetwork::Build(
          **grid, pw::sim::PmuNetwork::DefaultClusterCount((*grid)->num_buses())));
  *network = std::make_unique<pw::sim::PmuNetwork>(std::move(n));
  return pw::Status::OK();
}

pw::Result<std::unique_ptr<Fixture>> BuildFixture(const FixtureSpec& spec) {
  auto fixture = std::make_unique<Fixture>();
  PW_RETURN_IF_ERROR(LoadGrid(spec.buses, &fixture->grid, &fixture->network));
  const double cpu_start = ProcessCpuS();
  {
    Span span(Layer::kEval);
    PW_ASSIGN_OR_RETURN(fixture->dataset,
                        pw::eval::BuildDataset(*fixture->grid, spec.dataset,
                                               spec.dataset_seed));
    fixture->dataset_s = span.Stop() / 1e6;
  }
  pw::detect::TrainingData training;
  training.normal = &fixture->dataset.normal.train;
  for (const pw::eval::CaseData& c : fixture->dataset.outages) {
    training.case_lines.push_back(c.line);
    training.outage.push_back(&c.train);
  }
  std::string bytes;
  {
    pw::Result<pw::detect::OutageDetector> trained = [&] {
      Span span(Layer::kDetect);
      auto result = pw::detect::OutageDetector::Train(
          *fixture->grid, *fixture->network, training, spec.detector);
      fixture->train_s = span.Stop() / 1e6;
      fixture->build_cpu_s = ProcessCpuS() - cpu_start;
      return result;
    }();
    PW_RETURN_IF_ERROR(trained.status());
    Span span(Layer::kDetect);
    std::ostringstream out;
    PW_RETURN_IF_ERROR(trained->Save(out));
    bytes = out.str();
    fixture->save_ms = span.Stop() / 1e3;
  }
  fixture->model_bytes = bytes.size();
  Span span(Layer::kDetect);
  std::istringstream in(bytes);
  PW_ASSIGN_OR_RETURN(
      pw::detect::OutageDetector loaded,
      pw::detect::OutageDetector::Load(in, *fixture->grid, *fixture->network));
  fixture->detector =
      std::make_shared<pw::detect::OutageDetector>(std::move(loaded));
  fixture->load_ms = span.Stop() / 1e3;
  return fixture;
}

Columns SplitColumns(const pw::sim::PhasorDataSet& data) {
  Columns columns;
  for (size_t t = 0; t < data.num_samples(); ++t) {
    columns.vm.push_back(data.vm.Col(t));
    columns.va.push_back(data.va.Col(t));
  }
  return columns;
}

std::map<std::string, uint64_t> CounterSnapshot() {
  Span span(Layer::kObs);
  return pw::obs::MetricsRegistry::Global().CounterValues();
}

uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
