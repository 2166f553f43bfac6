#include "detect/detector.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grid/ieee_cases.h"
#include "obs/metrics.h"

namespace phasorwatch::detect {
namespace {

// Shared fixture: simulate a small IEEE-14 corpus once for all tests.
class DetectorTest : public ::testing::Test {
 protected:
  struct Shared {
    grid::Grid grid;
    sim::PmuNetwork network;
    sim::PhasorDataSet normal_train;
    sim::PhasorDataSet normal_test;
    std::vector<grid::LineId> lines;
    std::vector<sim::PhasorDataSet> outage_train;
    std::vector<sim::PhasorDataSet> outage_test;
    std::unique_ptr<OutageDetector> detector;
  };

  static Shared* shared_;

  static void SetUpTestSuite() {
    auto grid = grid::IeeeCase14();
    PW_CHECK(grid.ok());
    auto network = sim::PmuNetwork::Build(*grid, 3);
    PW_CHECK(network.ok());

    sim::SimulationOptions sim_opts;
    sim_opts.load.num_states = 16;
    sim_opts.samples_per_state = 8;

    Rng rng(2024);
    auto normal_train = sim::SimulateMeasurements(*grid, sim_opts, rng);
    PW_CHECK(normal_train.ok());
    auto normal_test = sim::SimulateMeasurements(*grid, sim_opts, rng);
    PW_CHECK(normal_test.ok());

    shared_ = new Shared{std::move(grid).value(),
                         std::move(network).value(),
                         std::move(normal_train).value(),
                         std::move(normal_test).value(),
                         {},
                         {},
                         {},
                         nullptr};

    // A handful of non-islanding lines keeps the fixture fast while
    // exercising multiple subspaces.
    size_t taken = 0;
    for (const grid::LineId& line : shared_->grid.lines()) {
      if (taken >= 6) break;
      auto outage_grid = shared_->grid.WithLineOut(line);
      if (!outage_grid.ok()) continue;
      Rng train_rng = rng.Fork();
      Rng test_rng = rng.Fork();
      auto train = sim::SimulateMeasurements(*outage_grid, sim_opts, train_rng);
      auto test = sim::SimulateMeasurements(*outage_grid, sim_opts, test_rng);
      if (!train.ok() || !test.ok()) continue;
      shared_->lines.push_back(line);
      shared_->outage_train.push_back(std::move(train).value());
      shared_->outage_test.push_back(std::move(test).value());
      ++taken;
    }
    PW_CHECK_GE(shared_->lines.size(), 4u);

    TrainingData data;
    data.normal = &shared_->normal_train;
    data.case_lines = shared_->lines;
    for (const auto& block : shared_->outage_train) data.outage.push_back(&block);
    auto detector = OutageDetector::Train(shared_->grid, shared_->network,
                                          data, DetectorOptions{});
    PW_CHECK_MSG(detector.ok(), detector.status().ToString().c_str());
    shared_->detector =
        std::make_unique<OutageDetector>(std::move(detector).value());
  }

  static void TearDownTestSuite() {
    delete shared_;
    shared_ = nullptr;
  }
};

DetectorTest::Shared* DetectorTest::shared_ = nullptr;

TEST_F(DetectorTest, TrainingFailsOnMalformedInput) {
  TrainingData empty;
  auto det = OutageDetector::Train(shared_->grid, shared_->network, empty, {});
  EXPECT_FALSE(det.ok());
}

TEST_F(DetectorTest, NormalSamplesProduceNoAlarm) {
  size_t correct = 0;
  const size_t total = 40;
  for (size_t t = 0; t < total; ++t) {
    auto [vm, va] = shared_->normal_test.Sample(t);
    auto result = shared_->detector->Detect(vm, va);
    ASSERT_TRUE(result.ok());
    if (!result->outage_detected) ++correct;
  }
  EXPECT_GE(correct, total * 9 / 10);
}

TEST_F(DetectorTest, LowRankTrainingPathDetectsOutages) {
  // Forcing sparse_bus_threshold to 1 routes node-subspace composition
  // through the low-rank Gram path (the 300+-bus training path,
  // docs/SPARSE.md) on the same IEEE-14 fixture data. The composed
  // subspaces agree with the dense path only up to roundoff, so this
  // asserts detection quality, not bit-equal scores.
  TrainingData data;
  data.normal = &shared_->normal_train;
  data.case_lines = shared_->lines;
  for (const auto& block : shared_->outage_train) data.outage.push_back(&block);
  DetectorOptions options;
  options.sparse_bus_threshold = 1;
  auto detector =
      OutageDetector::Train(shared_->grid, shared_->network, data, options);
  ASSERT_TRUE(detector.ok()) << detector.status().ToString();

  size_t hits = 0, total = 0;
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    for (size_t t = 0; t < 20; ++t) {
      auto [vm, va] = shared_->outage_test[c].Sample(t);
      auto result = detector->Detect(vm, va);
      ASSERT_TRUE(result.ok());
      ++total;
      if (std::find(result->lines.begin(), result->lines.end(),
                    shared_->lines[c]) != result->lines.end()) {
        ++hits;
      }
    }
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(total), 0.7);
  size_t false_alarms = 0;
  for (size_t t = 0; t < 40; ++t) {
    auto [vm, va] = shared_->normal_test.Sample(t);
    auto result = detector->Detect(vm, va);
    ASSERT_TRUE(result.ok());
    if (result->outage_detected) ++false_alarms;
  }
  EXPECT_LE(false_alarms, 4u);
}

TEST_F(DetectorTest, CompleteDataOutagesIdentified) {
  size_t hits = 0, total = 0;
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    for (size_t t = 0; t < 20; ++t) {
      auto [vm, va] = shared_->outage_test[c].Sample(t);
      auto result = shared_->detector->Detect(vm, va);
      ASSERT_TRUE(result.ok());
      ++total;
      if (std::find(result->lines.begin(), result->lines.end(),
                    shared_->lines[c]) != result->lines.end()) {
        ++hits;
      }
    }
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(total), 0.7);
}

TEST_F(DetectorTest, MissingOutageEndpointsStillIdentified) {
  size_t hits = 0, total = 0;
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    sim::MissingMask mask =
        sim::MissingAtOutage(shared_->grid.num_buses(), shared_->lines[c]);
    for (size_t t = 0; t < 20; ++t) {
      auto [vm, va] = shared_->outage_test[c].Sample(t);
      auto result = shared_->detector->Detect(vm, va, mask);
      ASSERT_TRUE(result.ok());
      ++total;
      if (std::find(result->lines.begin(), result->lines.end(),
                    shared_->lines[c]) != result->lines.end()) {
        ++hits;
      }
    }
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(total), 0.55);
}

TEST_F(DetectorTest, RandomMissingOnNormalDoesNotAlarm) {
  Rng rng(99);
  size_t false_alarms = 0;
  const size_t total = 40;
  for (size_t t = 0; t < total; ++t) {
    auto [vm, va] = shared_->normal_test.Sample(t);
    sim::MissingMask mask =
        sim::MissingRandom(shared_->grid.num_buses(), 3, {}, rng);
    auto result = shared_->detector->Detect(vm, va, mask);
    ASSERT_TRUE(result.ok());
    if (result->outage_detected) ++false_alarms;
  }
  EXPECT_LE(false_alarms, total / 5);
}

TEST_F(DetectorTest, AffectedNodesFormConnectedSubgraph) {
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    auto [vm, va] = shared_->outage_test[c].Sample(0);
    auto result = shared_->detector->Detect(vm, va);
    ASSERT_TRUE(result.ok());
    if (!result->outage_detected || result->affected_nodes.size() < 2) continue;
    // Each affected node after the first has a neighbor among the rest.
    for (size_t idx = 1; idx < result->affected_nodes.size(); ++idx) {
      size_t node = result->affected_nodes[idx];
      bool connected = false;
      for (size_t other : result->affected_nodes) {
        if (other == node) continue;
        const auto& nbs = shared_->grid.Neighbors(node);
        if (std::find(nbs.begin(), nbs.end(), other) != nbs.end()) {
          connected = true;
          break;
        }
      }
      EXPECT_TRUE(connected);
    }
  }
}

TEST_F(DetectorTest, PredictedLinesHaveSelectedEndpoints) {
  auto [vm, va] = shared_->outage_test[0].Sample(1);
  auto result = shared_->detector->Detect(vm, va);
  ASSERT_TRUE(result.ok());
  for (const grid::LineId& line : result->lines) {
    EXPECT_NE(std::find(result->affected_nodes.begin(),
                        result->affected_nodes.end(), line.i),
              result->affected_nodes.end());
    EXPECT_NE(std::find(result->affected_nodes.begin(),
                        result->affected_nodes.end(), line.j),
              result->affected_nodes.end());
  }
}

TEST_F(DetectorTest, SampleSizeMismatchRejected) {
  linalg::Vector bad(3);
  auto result = shared_->detector->Detect(bad, bad);
  EXPECT_FALSE(result.ok());
}

TEST_F(DetectorTest, AllMeasurementsMissingRejected) {
  const obs::Counter* rejected =
      obs::MetricsRegistry::Global().GetCounter("detect.samples_rejected");
  const uint64_t before = rejected->value();
  auto [vm, va] = shared_->normal_test.Sample(0);
  sim::MissingMask mask = sim::MissingMask::None(shared_->grid.num_buses());
  for (size_t i = 0; i < mask.size(); ++i) mask.missing[i] = true;
  auto result = shared_->detector->Detect(vm, va, mask);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataMissing);
  // Every error return counts one rejection; an accepted sample none.
  ASSERT_TRUE(shared_->detector->Detect(vm, va).ok());
#ifndef PW_OBS_DISABLED
  EXPECT_EQ(rejected->value(), before + 1);
#else
  EXPECT_EQ(rejected->value(), before);
#endif
}

TEST_F(DetectorTest, ScoresArePerNodeAndFinite) {
  auto [vm, va] = shared_->outage_test[0].Sample(2);
  auto result = shared_->detector->Detect(vm, va);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->node_scores.size(), shared_->grid.num_buses());
  for (size_t i = 0; i < result->node_scores.size(); ++i) {
    EXPECT_GE(result->node_scores[i], 0.0);
    EXPECT_TRUE(std::isfinite(result->node_scores[i]));
  }
}

TEST_F(DetectorTest, OutageEndpointScoresAreLowest) {
  size_t endpoint_in_bottom = 0;
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    auto [vm, va] = shared_->outage_test[c].Sample(3);
    auto result = shared_->detector->Detect(vm, va);
    ASSERT_TRUE(result.ok());
    // Rank of the true endpoints in the score ordering.
    std::vector<size_t> order(shared_->grid.num_buses());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return result->node_scores[a] < result->node_scores[b];
    });
    size_t rank_i = std::find(order.begin(), order.end(),
                              shared_->lines[c].i) - order.begin();
    size_t rank_j = std::find(order.begin(), order.end(),
                              shared_->lines[c].j) - order.begin();
    if (std::min(rank_i, rank_j) < 3) ++endpoint_in_bottom;
  }
  EXPECT_GE(endpoint_in_bottom, shared_->lines.size() * 2 / 3);
}

TEST_F(DetectorTest, ProximityCacheGrowsAndServes) {
  auto [vm, va] = shared_->normal_test.Sample(0);
  size_t before = shared_->detector->proximity_cache_size();
  sim::MissingMask mask =
      sim::MissingCluster(shared_->network, 0);
  ASSERT_TRUE(shared_->detector->Detect(vm, va, mask).ok());
  size_t after = shared_->detector->proximity_cache_size();
  EXPECT_GE(after, before);
  // Re-detect with the same mask: cache should not grow further.
  ASSERT_TRUE(shared_->detector->Detect(vm, va, mask).ok());
  EXPECT_EQ(shared_->detector->proximity_cache_size(), after);
}

TEST_F(DetectorTest, WholeClusterLossStillDetects) {
  size_t detected = 0, total = 0;
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    size_t cluster = shared_->network.ClusterOf(shared_->lines[c].i);
    sim::MissingMask mask = sim::MissingCluster(shared_->network, cluster);
    for (size_t t = 0; t < 10; ++t) {
      auto [vm, va] = shared_->outage_test[c].Sample(t);
      auto result = shared_->detector->Detect(vm, va, mask);
      ASSERT_TRUE(result.ok());
      ++total;
      if (result->outage_detected) ++detected;
    }
  }
  // Even with the whole home PDC dark, most outages must still raise an
  // alarm (localization may be coarser).
  EXPECT_GE(static_cast<double>(detected) / static_cast<double>(total), 0.6);
}

TEST_F(DetectorTest, IntrospectionAccessorsWired) {
  EXPECT_EQ(shared_->detector->ellipses().size(), shared_->grid.num_buses());
  EXPECT_EQ(shared_->detector->groups().size(),
            shared_->network.num_clusters());
  EXPECT_GT(shared_->detector->decision_threshold(), 0.0);
  EXPECT_GT(shared_->detector->normal_model().constraints.dim(), 0u);
  EXPECT_GT(shared_->detector->capabilities().NodeLevel().rows(), 0u);
}

}  // namespace
}  // namespace phasorwatch::detect
