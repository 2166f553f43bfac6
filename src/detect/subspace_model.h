#ifndef PHASORWATCH_DETECT_SUBSPACE_MODEL_H_
#define PHASORWATCH_DETECT_SUBSPACE_MODEL_H_

#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/subspace.h"
#include "linalg/views.h"
#include "sim/measurement.h"

namespace phasorwatch::detect {

/// Which phasor channel feeds the subspace features. The paper's X is
/// "either voltage magnitude or phase measurements"; kBoth stacks the
/// two channels into a 2N feature vector, which sharpens weak-line
/// signatures (reactive effects show in magnitudes).
enum class PhasorChannel { kMagnitude, kAngle, kBoth };

/// Options for learning an operating-condition subspace model.
struct SubspaceModelOptions {
  PhasorChannel channel = PhasorChannel::kBoth;
  /// Left singular vectors with singular value <= rel_tol * s_max are
  /// kept as constraint directions (the paper's "vectors of U
  /// corresponding to the lowest singular values").
  double constraint_rel_tol = 0.12;
  size_t min_constraints = 3;
  size_t max_constraints = 64;
  /// Also retain the full left-singular basis (needed to build whitened
  /// classification models; costs O(N^2) memory per model).
  bool keep_full_basis = false;
};

/// Learned model of one operating condition (normal operation or one
/// line-outage case), following Sec. IV-A.
///
/// The SVD of the centered data matrix X splits R^N into high-variance
/// directions (load-driven variation) and low-variance directions. The
/// low-variance left singular vectors are *constraints*: for any sample
/// x of this condition, B^T (x - mean) ~ 0 where B stacks those vectors.
/// Proximity of a sample to the model is the squared violation of its
/// constraints, which is exactly the squared Euclidean distance from the
/// centered sample to the model's signal subspace.
///
/// Note on Eq. (3): the paper composes per-line models into union /
/// intersection subspaces of their *solution sets*. On the constraint
/// bases stored here those operations flip: the union of solution sets
/// corresponds to intersecting constraint sets, and vice versa. The
/// NodeSubspaces builder below applies that duality.
struct SubspaceModel {
  linalg::Vector mean;          ///< training mean of the feature vector
  linalg::Subspace constraints; ///< low-variance directions (ambient N)
  linalg::Vector singular_values;  ///< full spectrum (diagnostics)
  /// Full left-singular basis (columns sorted by descending singular
  /// value); empty unless SubspaceModelOptions::keep_full_basis.
  linalg::Matrix full_basis;

  size_t ambient_dim() const { return mean.size(); }

  /// Squared constraint violation ||B^T (x - mean)||^2 for a complete
  /// sample.
  double Proximity(const linalg::Vector& x) const;
};

/// Per-sample k-space state of a WhitenedClassFamily, filled by
/// WhitenedClassFamily::Score. Reusable scratch: every buffer keeps its
/// capacity, so a warmed scoring loop allocates nothing.
class ClassScores {
 public:
  /// Q y: the sample's whitened, normal-centered coordinate with the
  /// hidden directions projected out.
  const linalg::Vector& y() const { return y_; }
  /// ||Q y||^2 — the normal class residual.
  double normal() const { return normal_; }
  /// ||Q (y - S_c)||^2 for every trained case c.
  const linalg::Vector& cases() const { return cases_; }
  /// The smallest case residual (-1 when the family has no cases).
  double BestCaseResidual() const;

  /// Q S_c: case c's mean shift as seen through the observed
  /// coordinates. Peeling composes hypotheses by subtracting these.
  linalg::ConstVectorView Shift(size_t c) const;
  /// ||Q S_c||^2 — the peeling normalizer of case c.
  double ShiftEnergy(size_t c) const;
  /// ||v - Q S_c||^2 for a k-space point v (e.g. a peeled Q y).
  double Residual(linalg::ConstVectorView v, size_t c) const;

 private:
  friend class WhitenedClassFamily;

  linalg::Vector y_;
  double normal_ = 0.0;
  linalg::Vector cases_;
  /// The family's S (complete data) or projected_shifts_.
  const linalg::Matrix* shifts_ = nullptr;
  linalg::Matrix projected_shifts_;  ///< Q S, C x k (hidden samples)
  linalg::Matrix hidden_basis_;      ///< B, orthonormal rows
  std::vector<size_t> hidden_coords_;
  std::vector<bool> observed_;
};

/// The whitened (LDA-style) line-class family behind gate 2 and
/// localization: one shared whitened matrix W (n x k), the normal mean
/// mu_n, and a C x n matrix of case means. W is the normal model's full
/// basis with each direction scaled by its inverse standard deviation
/// (ridged at the bottom quartile of the spectrum), so a class residual
/// is the Mahalanobis distance under the shared normal covariance — the
/// statistically efficient statistic for mean-shifted classes like line
/// outages. The shift matrix S, with rows S_c = W^T (mu_c - mu_n), is
/// derived on construction and never persisted.
///
/// Every class residual is computed in k-space. A sample observed on
/// coordinates D maps to y = W_D^T (x_D - mu_n,D) once; with B an
/// orthonormal basis of the hidden columns W_M^T and Q = I - B B^T,
/// case c's Eq. 9 residual is ||Q (y - S_c)||^2 (docs/MATH.md §4).
/// Scoring takes no lock and caches nothing per coordinate set.
class WhitenedClassFamily {
 public:
  WhitenedClassFamily() = default;

  /// W from `reference`'s full basis and spectrum (it must carry a full
  /// basis; `num_samples` is the training sample count behind the
  /// spectrum), mu_n = reference.mean, and `case_means` (one row per
  /// case).
  static WhitenedClassFamily Make(const SubspaceModel& reference,
                                  linalg::Matrix case_means,
                                  size_t num_samples);

  /// Restores a persisted family; rejects inconsistent shapes.
  PW_NODISCARD static Result<WhitenedClassFamily> FromParts(
      linalg::Matrix w, linalg::Vector normal_mean, linalg::Matrix case_means);

  size_t ambient_dim() const { return w_.rows(); }
  size_t dim() const { return w_.cols(); }
  size_t num_cases() const { return case_means_.rows(); }
  const linalg::Matrix& w() const { return w_; }
  const linalg::Vector& normal_mean() const { return normal_mean_; }
  const linalg::Matrix& case_means() const { return case_means_; }
  /// S, C x k.
  const linalg::Matrix& shifts() const { return shifts_; }

  /// Scores `features`, trusting only `coords` (non-empty, distinct,
  /// each < ambient_dim()), against the normal class and every case.
  PW_NO_ALLOC void Score(const linalg::Vector& features,
                         const std::vector<size_t>& coords,
                         ClassScores* out) const;

 private:
  WhitenedClassFamily(linalg::Matrix w, linalg::Vector normal_mean,
                      linalg::Matrix case_means);

  linalg::Matrix w_;
  linalg::Vector normal_mean_;
  linalg::Matrix case_means_;
  linalg::Matrix shifts_;
};

/// Extracts the configured channel's feature matrix (num_nodes x T).
linalg::Matrix FeatureMatrix(const sim::PhasorDataSet& data,
                             PhasorChannel channel);

/// Extracts the configured channel's feature vector for one sample.
linalg::Vector FeatureVector(const linalg::Vector& vm, const linalg::Vector& va,
                             PhasorChannel channel);

/// FeatureVector into a reused buffer (Assign keeps capacity, so a
/// warmed per-sample loop extracts features without allocating).
PW_NO_ALLOC void FeatureVectorInto(const linalg::Vector& vm,
                                   const linalg::Vector& va,
                       PhasorChannel channel, linalg::Vector* out);

/// Learns a subspace model from measurements of one condition.
PW_NODISCARD Result<SubspaceModel> LearnSubspaceModel(
    const sim::PhasorDataSet& data, const SubspaceModelOptions& options);

/// Per-node composite subspaces of Eq. (3), built from the models of
/// every line-outage case incident to the node.
struct NodeSubspaces {
  /// Paper's S_i-union: close when >= 1 line of the node is out.
  /// Constraint basis = soft intersection of the member constraint sets.
  SubspaceModel union_model;
  /// Paper's S_i-intersection: close only under severe multi-line
  /// outages of the node. Constraint basis = union of the member
  /// constraint sets.
  SubspaceModel intersection_model;
};

/// Composes the per-line models incident to one node. `cos_tol` controls
/// the numerical soft-intersection of constraint bases (directions whose
/// average-projector eigenvalue exceeds it are treated as shared).
/// `lowrank_composition` computes that spectrum through the summed-rank
/// Gram matrix instead of the dense ambient-dimension eigensolve — the
/// same subspace up to roundoff (not bit-identical), and the path
/// large-grid training takes (docs/SPARSE.md).
NodeSubspaces BuildNodeSubspaces(const std::vector<const SubspaceModel*>& line_models,
                                 double cos_tol = 0.6,
                                 bool lowrank_composition = false);

}  // namespace phasorwatch::detect

#endif  // PHASORWATCH_DETECT_SUBSPACE_MODEL_H_
