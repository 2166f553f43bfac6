#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "detect/detector.h"
#include "grid/ieee_cases.h"
#include "sim/fault_injection.h"

namespace phasorwatch::detect {
namespace {

// Detect reuses thread-local scratch buffers across calls; results
// must not depend on which samples (or detectors) ran before on the
// thread. The fixture trains one IEEE-30 detector pair for the suite.
class DetectScratchTest : public ::testing::Test {
 public:
  struct Sample {
    linalg::Vector vm;
    linalg::Vector va;
    sim::MissingMask mask;
  };

  struct Shared {
    grid::Grid grid;
    sim::PmuNetwork network;
    sim::PhasorDataSet normal_test;
    std::vector<grid::LineId> lines;
    std::vector<sim::PhasorDataSet> outage_test;
    std::unique_ptr<OutageDetector> detector;
    /// Same training corpus with max_outage_lines = 2, so the peeling
    /// layer's scratch is covered too.
    std::unique_ptr<OutageDetector> multi_detector;
  };

  static Shared* shared_;

  static void SetUpTestSuite() {
    auto grid = grid::IeeeCase30();
    PW_CHECK(grid.ok());
    auto network = sim::PmuNetwork::Build(*grid, 4);
    PW_CHECK(network.ok());

    sim::SimulationOptions sim_opts;
    sim_opts.load.num_states = 16;
    sim_opts.samples_per_state = 8;

    Rng rng(30303);
    auto normal_train = sim::SimulateMeasurements(*grid, sim_opts, rng);
    PW_CHECK(normal_train.ok());
    auto normal_test = sim::SimulateMeasurements(*grid, sim_opts, rng);
    PW_CHECK(normal_test.ok());

    std::vector<grid::LineId> lines;
    std::vector<sim::PhasorDataSet> outage_train;
    std::vector<sim::PhasorDataSet> outage_test;
    for (const grid::LineId& line : grid->lines()) {
      if (lines.size() >= 6) break;
      auto outage_grid = grid->WithLineOut(line);
      if (!outage_grid.ok()) continue;
      Rng train_rng = rng.Fork();
      Rng test_rng = rng.Fork();
      auto train = sim::SimulateMeasurements(*outage_grid, sim_opts, train_rng);
      auto test = sim::SimulateMeasurements(*outage_grid, sim_opts, test_rng);
      if (!train.ok() || !test.ok()) continue;
      lines.push_back(line);
      outage_train.push_back(std::move(train).value());
      outage_test.push_back(std::move(test).value());
    }
    PW_CHECK_GE(lines.size(), 4u);

    // The detector keeps non-owning pointers to the grid and network,
    // so they must live at their final address before training.
    shared_ = new Shared{std::move(grid).value(),
                         std::move(network).value(),
                         std::move(normal_test).value(),
                         std::move(lines),
                         std::move(outage_test),
                         nullptr,
                         nullptr};
    TrainingData data;
    data.normal = &*normal_train;
    data.case_lines = shared_->lines;
    for (const auto& block : outage_train) data.outage.push_back(&block);
    auto detector =
        OutageDetector::Train(shared_->grid, shared_->network, data, {});
    PW_CHECK_MSG(detector.ok(), detector.status().ToString().c_str());
    shared_->detector =
        std::make_unique<OutageDetector>(std::move(detector).value());

    DetectorOptions multi_opts;
    multi_opts.max_outage_lines = 2;
    auto multi = OutageDetector::Train(shared_->grid, shared_->network, data,
                                       multi_opts);
    PW_CHECK_MSG(multi.ok(), multi.status().ToString().c_str());
    shared_->multi_detector =
        std::make_unique<OutageDetector>(std::move(multi).value());
  }

  static void TearDownTestSuite() {
    delete shared_;
    shared_ = nullptr;
  }

  // Builds a sample set mixing complete data, outage-endpoint loss,
  // random loss, repeated masks, and whole-cluster loss.
  static std::vector<Sample> MixedSamples() {
    const size_t n = shared_->grid.num_buses();
    std::vector<Sample> samples;
    Rng rng(777);
    for (size_t c = 0; c < shared_->lines.size(); ++c) {
      auto [vm0, va0] = shared_->outage_test[c].Sample(0);
      samples.push_back({vm0, va0, sim::MissingMask::None(n)});
      auto [vm1, va1] = shared_->outage_test[c].Sample(1);
      sim::MissingMask endpoint_mask =
          sim::MissingAtOutage(n, shared_->lines[c]);
      samples.push_back({vm1, va1, endpoint_mask});
      // Same mask again with a different sample.
      auto [vm2, va2] = shared_->outage_test[c].Sample(2);
      samples.push_back({vm2, va2, endpoint_mask});
      auto [vm3, va3] = shared_->normal_test.Sample(c);
      samples.push_back({vm3, va3, sim::MissingRandom(n, 3, {}, rng)});
    }
    auto [vm, va] = shared_->normal_test.Sample(20);
    samples.push_back({vm, va, sim::MissingCluster(shared_->network, 0)});
    return samples;
  }

  static void ExpectSameResult(const DetectionResult& a,
                               const DetectionResult& b, size_t index) {
    SCOPED_TRACE(testing::Message() << "sample " << index);
    EXPECT_EQ(a.outage_detected, b.outage_detected);
    EXPECT_EQ(a.decision_score, b.decision_score);
    EXPECT_EQ(a.affected_nodes, b.affected_nodes);
    ASSERT_EQ(a.lines.size(), b.lines.size());
    for (size_t i = 0; i < a.lines.size(); ++i) {
      EXPECT_EQ(a.lines[i], b.lines[i]);
    }
    ASSERT_EQ(a.node_scores.size(), b.node_scores.size());
    for (size_t i = 0; i < a.node_scores.size(); ++i) {
      EXPECT_EQ(a.node_scores[i], b.node_scores[i]);
    }
    EXPECT_EQ(a.screened_nodes, b.screened_nodes);
    // The multi-line identification (empty on a legacy detector) must
    // match line-for-line with bit-equal confidences.
    ASSERT_EQ(a.outage_set.size(), b.outage_set.size());
    for (size_t i = 0; i < a.outage_set.size(); ++i) {
      EXPECT_EQ(a.outage_set[i].line, b.outage_set[i].line);
      EXPECT_EQ(a.outage_set[i].confidence, b.outage_set[i].confidence);
    }
  }
};

DetectScratchTest::Shared* DetectScratchTest::shared_ = nullptr;

// Detects every sample forward and then in reverse on this thread; each
// sample must get the same result both times. The thread-local scratch
// is reused buffers only, never state that leaks across samples.
void ExpectOrderIndependent(OutageDetector& detector,
                            const std::vector<DetectScratchTest::Sample>&
                                samples,
                            std::vector<DetectionResult>* forward_results) {
  std::vector<DetectionResult> forward;
  for (const auto& s : samples) {
    auto result = detector.Detect(s.vm, s.va, s.mask);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    forward.push_back(std::move(result).value());
  }
  for (size_t i = samples.size(); i > 0; --i) {
    const auto& s = samples[i - 1];
    auto result = detector.Detect(s.vm, s.va, s.mask);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    DetectScratchTest::ExpectSameResult(forward[i - 1], *result, i - 1);
  }
  *forward_results = std::move(forward);
}

TEST_F(DetectScratchTest, ResultsIndependentOfCallOrder) {
  std::vector<Sample> samples = MixedSamples();
  std::vector<DetectionResult> results;
  ExpectOrderIndependent(*shared_->detector, samples, &results);
  ASSERT_EQ(results.size(), samples.size());

  // Interleaving a second detector on the same thread (same scratch)
  // must not disturb the first one's results either.
  for (size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(shared_->multi_detector
                    ->Detect(samples[i].vm, samples[i].va, samples[i].mask)
                    .ok());
    auto again = shared_->detector->Detect(samples[i].vm, samples[i].va,
                                           samples[i].mask);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectSameResult(results[i], *again, i);
  }
}

TEST_F(DetectScratchTest, MultiOutageUnderFaultsIndependentOfCallOrder) {
  // Corrupt an outage stream with the deterministic injector (gross
  // spikes, frozen channels, non-finite values) and run it through the
  // multi-line detector in both orders: the bad-data screen shrinks the
  // coordinate set underneath the peeling layer from sample to sample,
  // and no screened mask or peeled state may carry over.
  const size_t n = shared_->grid.num_buses();
  sim::PhasorDataSet corrupted = shared_->outage_test[0];
  const size_t num_samples = corrupted.num_samples();
  sim::FaultScheduleOptions fopts;
  fopts.gross_errors = 4;
  fopts.frozen_channels = 2;
  fopts.non_finite = 2;
  fopts.window = 3;
  auto schedule = sim::MakeRandomFaultSchedule(fopts, n, num_samples, 424242);
  ASSERT_TRUE(schedule.ok());
  auto injector =
      sim::FaultInjector::Create(std::move(schedule).value(), n, num_samples,
                                 424242);
  ASSERT_TRUE(injector.ok());
  std::vector<sim::MissingMask> masks;
  ASSERT_TRUE(injector->ApplyToDataSet(&corrupted, &masks).ok());

  std::vector<Sample> samples;
  for (size_t t = 0; t < num_samples; ++t) {
    auto [vm, va] = corrupted.Sample(t);
    samples.push_back({vm, va, masks[t]});
  }
  std::vector<DetectionResult> results;
  ExpectOrderIndependent(*shared_->multi_detector, samples, &results);
  size_t screened = 0;
  size_t identified = 0;
  for (const DetectionResult& r : results) {
    screened += r.screened_nodes;
    identified += r.outage_set.size();
  }
  // The schedule must actually have driven the screen, and the
  // comparison must cover actual peeling runs.
  EXPECT_GT(screened, 0u);
  EXPECT_GT(identified, 0u);
}

}  // namespace
}  // namespace phasorwatch::detect
