#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "detect/subspace_model.h"
#include "linalg/svd.h"

namespace phasorwatch::detect {
namespace {

using linalg::Matrix;
using linalg::Vector;

// Gaussian data with per-axis standard deviations `sigma` around `mean`
// (axis-aligned covariance keeps expectations easy to verify).
sim::PhasorDataSet AxisData(const Vector& mean, const Vector& sigma,
                            size_t samples, Rng& rng) {
  const size_t n = mean.size();
  sim::PhasorDataSet data;
  data.vm = Matrix(n, samples, 1.0);
  data.va = Matrix(n, samples);
  for (size_t t = 0; t < samples; ++t) {
    for (size_t i = 0; i < n; ++i) {
      data.va(i, t) = rng.Normal(mean[i], sigma[i]);
    }
  }
  return data;
}

// Complete-data class residual of x: against case `c` of the family, or
// against the normal class when c == kNormal.
constexpr size_t kNormal = static_cast<size_t>(-1);
double ClassResidual(const WhitenedClassFamily& family, const Vector& x,
                     size_t c) {
  std::vector<size_t> all(x.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  ClassScores scores;
  family.Score(x, all, &scores);
  return c == kNormal ? scores.normal() : scores.cases()[c];
}

Matrix CaseMeans(const std::vector<Vector>& means) {
  Matrix out(means.size(), means.front().size());
  for (size_t c = 0; c < means.size(); ++c) out.SetRow(c, means[c]);
  return out;
}

SubspaceModelOptions AngleFullOptions() {
  SubspaceModelOptions opts;
  opts.channel = PhasorChannel::kAngle;
  opts.keep_full_basis = true;
  return opts;
}

TEST(WhitenedModelTest, RequiresFullBasis) {
  Rng rng(1);
  Vector mean(4);
  Vector sigma{0.1, 0.1, 0.01, 0.01};
  auto data = AxisData(mean, sigma, 300, rng);
  SubspaceModelOptions opts = AngleFullOptions();
  auto model = LearnSubspaceModel(data, opts);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->full_basis.empty());
  EXPECT_EQ(model->full_basis.rows(), 4u);
  // Without the flag the basis stays empty.
  opts.keep_full_basis = false;
  auto slim = LearnSubspaceModel(data, opts);
  ASSERT_TRUE(slim.ok());
  EXPECT_TRUE(slim->full_basis.empty());
}

TEST(WhitenedModelTest, MahalanobisScalesByVariance) {
  Rng rng(2);
  Vector mean(4);
  Vector sigma{0.2, 0.2, 0.002, 0.002};
  auto data = AxisData(mean, sigma, 2000, rng);
  auto reference = LearnSubspaceModel(data, AngleFullOptions());
  ASSERT_TRUE(reference.ok());
  WhitenedClassFamily family = WhitenedClassFamily::Make(
      *reference, CaseMeans({reference->mean}), 2000);
  // A unit step along a high-variance axis costs far less than along a
  // low-variance axis.
  Vector high = reference->mean;
  high[0] += 0.1;
  Vector low = reference->mean;
  low[2] += 0.1;
  EXPECT_GT(ClassResidual(family, low, kNormal),
            20.0 * ClassResidual(family, high, kNormal));
}

TEST(WhitenedModelTest, ZeroAtItsMean) {
  Rng rng(3);
  Vector mean{1.0, -1.0, 0.5};
  Vector sigma{0.05, 0.05, 0.05};
  auto data = AxisData(mean, sigma, 500, rng);
  auto reference = LearnSubspaceModel(data, AngleFullOptions());
  ASSERT_TRUE(reference.ok());
  Vector shifted = reference->mean;
  shifted[1] += 0.7;
  WhitenedClassFamily family =
      WhitenedClassFamily::Make(*reference, CaseMeans({shifted}), 500);
  EXPECT_NEAR(ClassResidual(family, shifted, 0), 0.0, 1e-9);
  EXPECT_GT(ClassResidual(family, reference->mean, 0), 1.0);
  EXPECT_NEAR(ClassResidual(family, reference->mean, kNormal), 0.0, 1e-9);
}

TEST(WhitenedModelTest, SharedCovarianceAcrossClassModels) {
  // Two classes of one family must assign the same cost to the same
  // displacement (LDA with shared covariance).
  Rng rng(4);
  Vector mean(3);
  Vector sigma{0.1, 0.02, 0.01};
  auto data = AxisData(mean, sigma, 800, rng);
  auto reference = LearnSubspaceModel(data, AngleFullOptions());
  ASSERT_TRUE(reference.ok());
  Vector mean_a = reference->mean;
  Vector mean_b = reference->mean;
  mean_b[0] += 1.0;
  WhitenedClassFamily family =
      WhitenedClassFamily::Make(*reference, CaseMeans({mean_a, mean_b}), 800);
  Vector displacement{0.03, -0.01, 0.02};
  Vector xa = mean_a;
  Vector xb = mean_b;
  for (size_t i = 0; i < 3; ++i) {
    xa[i] += displacement[i];
    xb[i] += displacement[i];
  }
  EXPECT_NEAR(ClassResidual(family, xa, 0), ClassResidual(family, xb, 1),
              1e-9);
}

TEST(SubspaceFastPathTest, CovarianceAndSvdPathsAgree) {
  // T > N triggers the scatter-matrix eigensolve; T <= N the Jacobi
  // SVD. Both must produce the same spectrum and equivalent constraint
  // spaces on the same data.
  Rng rng(5);
  Vector mean(6);
  Vector sigma{0.3, 0.2, 0.1, 0.003, 0.002, 0.001};
  auto wide = AxisData(mean, sigma, 400, rng);  // fast path
  SubspaceModelOptions opts;
  opts.channel = PhasorChannel::kAngle;
  auto fast = LearnSubspaceModel(wide, opts);
  ASSERT_TRUE(fast.ok());

  // Narrow copy of the same samples (first 6 columns) uses the SVD
  // path; spectra can differ (different data), so instead verify the
  // fast path's spectrum against a direct SVD of the same wide matrix.
  Matrix x = FeatureMatrix(wide, PhasorChannel::kAngle);
  for (size_t i = 0; i < x.rows(); ++i) {
    double m = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) m += x(i, c);
    m /= static_cast<double>(x.cols());
    for (size_t c = 0; c < x.cols(); ++c) x(i, c) -= m;
  }
  auto svd = linalg::ComputeSvd(x);
  ASSERT_TRUE(svd.ok());
  for (size_t j = 0; j < 6; ++j) {
    EXPECT_NEAR(fast->singular_values[j], svd->singular_values[j],
                1e-6 * svd->singular_values[0])
        << "j=" << j;
  }
  // The constraint space must coincide with the SVD's trailing left
  // singular vectors (up to sign): compare via principal angles.
  size_t k = fast->constraints.dim();
  std::vector<size_t> cols;
  for (size_t j = 6 - k; j < 6; ++j) cols.push_back(j);
  linalg::Subspace svd_space =
      linalg::Subspace::FromOrthonormal(svd->u.SelectCols(cols));
  auto cosines =
      linalg::Subspace::PrincipalAngleCosines(fast->constraints, svd_space);
  ASSERT_TRUE(cosines.ok());
  for (size_t j = 0; j < cosines->size(); ++j) {
    EXPECT_GT((*cosines)[j], 0.999) << "angle " << j;
  }
}

}  // namespace
}  // namespace phasorwatch::detect
