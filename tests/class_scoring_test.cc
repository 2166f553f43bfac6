// Property checks for the k-space class scoring of WhitenedClassFamily:
// every residual gate 2, localization and peeling read must equal the
// Eq. 9 missing-data residual ||(I - C_M C_M^+) C_D (x_D - mu_D)||^2
// with C = W^T, built independently here through PseudoInverse.

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "detect/detector.h"
#include "grid/ieee_cases.h"
#include "linalg/svd.h"
#include "linalg/views.h"

namespace phasorwatch::detect {
namespace {

using linalg::Matrix;
using linalg::Vector;

constexpr double kRelTol = 1e-9;

struct Fixture {
  grid::Grid grid;
  sim::PmuNetwork network;
  sim::PhasorDataSet normal_test;
  std::vector<grid::LineId> lines;
  std::vector<sim::PhasorDataSet> outage_test;
  std::unique_ptr<OutageDetector> detector;  // max_outage_lines = 2
};

std::unique_ptr<Fixture> MakeFixture(Result<grid::Grid> grid_or,
                                     size_t clusters, uint64_t seed) {
  PW_CHECK(grid_or.ok());
  auto network = sim::PmuNetwork::Build(*grid_or, clusters);
  PW_CHECK(network.ok());
  sim::SimulationOptions sim_opts;
  sim_opts.load.num_states = 16;
  sim_opts.samples_per_state = 8;
  Rng rng(seed);
  auto normal_train = sim::SimulateMeasurements(*grid_or, sim_opts, rng);
  auto normal_test = sim::SimulateMeasurements(*grid_or, sim_opts, rng);
  PW_CHECK(normal_train.ok() && normal_test.ok());

  std::vector<grid::LineId> lines;
  std::vector<sim::PhasorDataSet> outage_train;
  std::vector<sim::PhasorDataSet> outage_test;
  for (const grid::LineId& line : grid_or->lines()) {
    if (lines.size() >= 8) break;
    auto outage_grid = grid_or->WithLineOut(line);
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

  // The detector keeps pointers to the grid and network: place them at
  // their final address before training.
  auto f = std::make_unique<Fixture>(Fixture{std::move(grid_or).value(),
                                             std::move(network).value(),
                                             std::move(normal_test).value(),
                                             std::move(lines),
                                             std::move(outage_test),
                                             nullptr});
  TrainingData data;
  data.normal = &*normal_train;
  data.case_lines = f->lines;
  for (const auto& block : outage_train) data.outage.push_back(&block);
  DetectorOptions opts;
  opts.max_outage_lines = 2;
  auto detector = OutageDetector::Train(f->grid, f->network, data, opts);
  PW_CHECK_MSG(detector.ok(), detector.status().ToString().c_str());
  f->detector = std::make_unique<OutageDetector>(std::move(detector).value());
  return f;
}

// The independent reference: the Eq. 9 regressor R = (I - C_M C_M^+) C_D
// over C = W^T, applied to a centered sample.
class ReferenceResidual {
 public:
  ReferenceResidual(const WhitenedClassFamily& family,
                    const std::vector<size_t>& coords)
      : coords_(coords) {
    const Matrix& w = family.w();
    const size_t n = w.rows();
    const size_t k = w.cols();
    std::vector<bool> observed(n, false);
    for (size_t d : coords) observed[d] = true;
    std::vector<size_t> hidden;
    for (size_t i = 0; i < n; ++i) {
      if (!observed[i]) hidden.push_back(i);
    }
    Matrix c_d(k, coords.size());
    for (size_t j = 0; j < coords.size(); ++j) {
      for (size_t r = 0; r < k; ++r) c_d(r, j) = w(coords[j], r);
    }
    if (hidden.empty()) {
      r_ = c_d;
      return;
    }
    Matrix c_m(k, hidden.size());
    for (size_t j = 0; j < hidden.size(); ++j) {
      for (size_t r = 0; r < k; ++r) c_m(r, j) = w(hidden[j], r);
    }
    auto pinv = linalg::PseudoInverse(c_m);
    PW_CHECK(pinv.ok());
    r_ = c_d - c_m * (*pinv * c_d);
  }

  // ||R (x_D - mean_D)||^2.
  double operator()(const Vector& x, const Vector& mean) const {
    Vector z(coords_.size());
    for (size_t j = 0; j < coords_.size(); ++j) {
      z[j] = x[coords_[j]] - mean[coords_[j]];
    }
    Vector rz = r_ * z;
    return rz.Dot(rz);
  }

 private:
  std::vector<size_t> coords_;
  Matrix r_;
};

double RelativeError(double got, double want) {
  return std::abs(got - want) / std::max(std::abs(want), 1e-12);
}

// Feature coordinates of the available nodes (kBoth: magnitudes, then
// angles), the coordinate set Detect scores the class family over.
std::vector<size_t> PooledCoords(const std::vector<size_t>& nodes, size_t n) {
  std::vector<size_t> coords = nodes;
  for (size_t node : nodes) coords.push_back(n + node);
  return coords;
}

size_t ArgMin(const Vector& v) {
  size_t best = 0;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[best]) best = i;
  }
  return best;
}

// Checks one sample over one coordinate set: the normal and every case
// residual, and the peeled residuals and normalizers for a few anchors.
void ExpectMatchesReference(const WhitenedClassFamily& family,
                            const Vector& features,
                            const std::vector<size_t>& coords,
                            const std::string& label) {
  SCOPED_TRACE(label);
  ClassScores scores;
  family.Score(features, coords, &scores);
  const ReferenceResidual reference(family, coords);
  const Vector& mu_n = family.normal_mean();
  const size_t cases = family.num_cases();

  EXPECT_LE(RelativeError(scores.normal(), reference(features, mu_n)), kRelTol);
  Vector want(cases);
  for (size_t c = 0; c < cases; ++c) {
    const Vector mu_c = family.case_means().Row(c);
    want[c] = reference(features, mu_c);
    EXPECT_LE(RelativeError(scores.cases()[c], want[c]), kRelTol)
        << "case " << c;
  }
  // The best case must agree unless the top two residuals tie at the
  // rounding level of the projection's input (e.g. Q = 0, when every
  // direction is hidden).
  std::vector<size_t> all(family.ambient_dim());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  const ReferenceResidual complete(family, all);
  double scale = complete(features, mu_n);
  for (size_t c = 0; c < cases; ++c) {
    scale = std::max(scale, complete(features, family.case_means().Row(c)));
  }
  std::vector<double> sorted = want.values();
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() < 2 || sorted[1] - sorted[0] > 1e-9 * scale) {
    EXPECT_EQ(ArgMin(scores.cases()), ArgMin(want));
  }

  // Peeling: y' = Q y - Q S_a against the feature-space composition
  // x - (mu_a - mu_n), and the normalizer ||Q S_c||^2 = ||R d_c||^2.
  for (size_t a : {ArgMin(want), size_t{0}, cases - 1}) {
    Vector peeled_x = features;
    const Vector mu_a = family.case_means().Row(a);
    for (size_t i = 0; i < peeled_x.size(); ++i) {
      peeled_x[i] -= mu_a[i] - mu_n[i];
    }
    Vector peeled = scores.y();
    linalg::AxpyInto(-1.0, scores.Shift(a), peeled);
    EXPECT_LE(RelativeError(linalg::SquaredNorm(peeled),
                            reference(peeled_x, mu_n)),
              kRelTol)
        << "anchor " << a;
    for (size_t c = 0; c < cases; ++c) {
      const Vector mu_c = family.case_means().Row(c);
      EXPECT_LE(RelativeError(scores.Residual(peeled, c),
                              reference(peeled_x, mu_c)),
                kRelTol)
          << "anchor " << a << " case " << c;
      EXPECT_LE(RelativeError(scores.ShiftEnergy(c), reference(mu_c, mu_n)),
                kRelTol)
          << "case " << c;
    }
  }
}

class ClassScoringTest : public ::testing::TestWithParam<const char*> {
 public:
  static void SetUpTestSuite() {
    ieee14_ = MakeFixture(grid::IeeeCase14(), 3, 1414).release();
    ieee30_ = MakeFixture(grid::IeeeCase30(), 4, 3030).release();
  }
  static void TearDownTestSuite() {
    delete ieee14_;
    delete ieee30_;
    ieee14_ = ieee30_ = nullptr;
  }

 protected:
  Fixture& fixture() const {
    return std::string(GetParam()) == "ieee14" ? *ieee14_ : *ieee30_;
  }
  const WhitenedClassFamily& family() const {
    return fixture().detector->class_family();
  }
  Vector OutageFeatures(size_t c, size_t t) const {
    auto [vm, va] = fixture().outage_test[c].Sample(t);
    return FeatureVector(vm, va, PhasorChannel::kBoth);
  }

  static Fixture* ieee14_;
  static Fixture* ieee30_;
};

Fixture* ClassScoringTest::ieee14_ = nullptr;
Fixture* ClassScoringTest::ieee30_ = nullptr;

TEST_P(ClassScoringTest, CompleteDataMatchesReference) {
  const size_t n = fixture().grid.num_buses();
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  const std::vector<size_t> coords = PooledCoords(all, n);
  for (size_t c = 0; c < fixture().lines.size(); ++c) {
    ExpectMatchesReference(family(), OutageFeatures(c, 0), coords,
                           "outage case " + std::to_string(c));
  }
  auto [vm, va] = fixture().normal_test.Sample(0);
  ExpectMatchesReference(family(), FeatureVector(vm, va, PhasorChannel::kBoth),
                         coords, "normal sample");
}

TEST_P(ClassScoringTest, RandomMasksMatchReference) {
  const size_t n = fixture().grid.num_buses();
  Rng rng(99);
  for (size_t trial = 0; trial < 24; ++trial) {
    const size_t c = trial % fixture().lines.size();
    sim::MissingMask mask =
        sim::MissingRandom(n, 1 + rng.UniformInt(4), {}, rng);
    ExpectMatchesReference(family(), OutageFeatures(c, trial % 4),
                           PooledCoords(mask.AvailableIndices(), n),
                           "trial " + std::to_string(trial));
  }
}

TEST_P(ClassScoringTest, WholeClusterLossMatchesReference) {
  const size_t n = fixture().grid.num_buses();
  for (size_t cluster = 0; cluster < fixture().network.num_clusters();
       ++cluster) {
    sim::MissingMask mask = sim::MissingCluster(fixture().network, cluster);
    ExpectMatchesReference(family(), OutageFeatures(cluster % 4, 1),
                           PooledCoords(mask.AvailableIndices(), n),
                           "cluster " + std::to_string(cluster));
  }
}

TEST_P(ClassScoringTest, ScreenedSampleMatchesReferenceAndDetect) {
  // A gross error on one endpoint-adjacent node: the bad-data screen
  // demotes it, so Detect scores the class family over the remaining
  // coordinates. Its best case must be the reference's.
  Fixture& f = fixture();
  const size_t n = f.grid.num_buses();
  size_t checked = 0;
  for (size_t c = 0; c < f.lines.size(); ++c) {
    auto [vm, va] = f.outage_test[c].Sample(2);
    const size_t bad = (f.lines[c].i + 3) % n;
    vm[bad] += 0.5;
    va[bad] -= 1.0;
    auto result = f.detector->Detect(vm, va, sim::MissingMask::None(n));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->screened_nodes, 1u);
    std::vector<size_t> nodes;
    for (size_t i = 0; i < n; ++i) {
      if (i != bad) nodes.push_back(i);
    }
    const std::vector<size_t> coords = PooledCoords(nodes, n);
    const Vector features = FeatureVector(vm, va, PhasorChannel::kBoth);
    ExpectMatchesReference(family(), features, coords,
                           "screened case " + std::to_string(c));
    if (!result->outage_detected) continue;
    const ReferenceResidual reference(family(), coords);
    Vector want(family().num_cases());
    for (size_t k = 0; k < want.size(); ++k) {
      want[k] = reference(features, family().case_means().Row(k));
    }
    ASSERT_FALSE(result->outage_set.empty());
    EXPECT_EQ(result->outage_set.front().line, f.lines[ArgMin(want)]);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(ClassScoringTest, SaveLoadPreservesDecisions) {
  Fixture& f = fixture();
  const size_t n = f.grid.num_buses();
  std::stringstream buffer;
  ASSERT_TRUE(f.detector->Save(buffer).ok());
  auto loaded = OutageDetector::Load(buffer, f.grid, f.network);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Rng rng(7);
  for (size_t c = 0; c < f.lines.size(); ++c) {
    for (size_t t = 0; t < 3; ++t) {
      auto [vm, va] = f.outage_test[c].Sample(t);
      sim::MissingMask mask = t == 0 ? sim::MissingMask::None(n)
                                     : sim::MissingRandom(n, t, {}, rng);
      auto a = f.detector->Detect(vm, va, mask);
      auto b = loaded->Detect(vm, va, mask);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->outage_detected, b->outage_detected);
      EXPECT_EQ(a->lines, b->lines);
      ASSERT_EQ(a->outage_set.size(), b->outage_set.size());
      for (size_t k = 0; k < a->outage_set.size(); ++k) {
        EXPECT_EQ(a->outage_set[k].line, b->outage_set[k].line);
        EXPECT_EQ(a->outage_set[k].confidence, b->outage_set[k].confidence);
      }
    }
  }
  // The restored family derives the same shifts from the same W.
  EXPECT_TRUE(loaded->class_family().shifts().AlmostEquals(
      family().shifts(), 0.0));
}

TEST_P(ClassScoringTest, PreviousFormatRejectedWithVersionError) {
  std::stringstream buffer;
  BinaryWriter w(buffer);
  w.WriteU64(0x5057444554303400ull);  // "PWDET04\0"
  auto loaded =
      OutageDetector::Load(buffer, fixture().grid, fixture().network);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("PWDET04"), std::string::npos)
      << loaded.status().ToString();
}

TEST(ClassScoringThinBasisTest, FewerSamplesThanFeaturesMatchesReference) {
  // T <= N leaves a thin basis (k < n), so hiding more than k
  // coordinates exhausts k-space (Q = 0) and the rank rule decides
  // which hidden columns count.
  const size_t n = 12;
  const size_t t = 7;
  Rng rng(1207);
  sim::PhasorDataSet data;
  data.vm = Matrix(n, t, 1.0);
  data.va = Matrix(n, t);
  for (size_t s = 0; s < t; ++s) {
    for (size_t i = 0; i < n; ++i) data.va(i, s) = rng.Normal(0.0, 0.1);
  }
  SubspaceModelOptions opts;
  opts.channel = PhasorChannel::kAngle;
  opts.keep_full_basis = true;
  auto reference = LearnSubspaceModel(data, opts);
  ASSERT_TRUE(reference.ok());
  Matrix case_means(3, n);
  for (size_t c = 0; c < 3; ++c) {
    for (size_t i = 0; i < n; ++i) case_means(c, i) = rng.Normal(0.0, 0.2);
  }
  const WhitenedClassFamily family =
      WhitenedClassFamily::Make(*reference, std::move(case_means), t);
  ASSERT_LT(family.dim(), n);

  for (size_t hide = 0; hide <= 9; ++hide) {
    Vector x(n);
    for (size_t i = 0; i < n; ++i) x[i] = rng.Normal(0.0, 0.3);
    std::vector<size_t> coords;
    for (size_t i = hide; i < n; ++i) coords.push_back(i);
    ExpectMatchesReference(family, x, coords,
                           "hidden " + std::to_string(hide));
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, ClassScoringTest,
                         ::testing::Values("ieee14", "ieee30"));

}  // namespace
}  // namespace phasorwatch::detect
