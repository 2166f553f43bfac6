#ifndef PHASORWATCH_LINALG_VIEWS_H_
#define PHASORWATCH_LINALG_VIEWS_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "linalg/matrix.h"

namespace phasorwatch::linalg {

/// Non-owning views over dense double data, plus destination-passing
/// kernels that write into caller-supplied storage.
///
/// The value-semantic Matrix/Vector API stays the source of truth for
/// results: every kernel here uses the exact loop order of its
/// value-returning twin, so `MultiplyInto(a, b, out)` produces the
/// bit-identical doubles of `a * b`. The views exist so hot paths
/// (per-sample detection, Newton-Raphson iterations, estimator sweeps)
/// can run against preallocated workspace instead of churning the heap.
///
/// Lifetime: a view never owns memory and must not outlive the Matrix,
/// Vector, or Workspace allocation it was taken from. Kernels require
/// the destination to be disjoint from every input (checked with
/// PW_CHECK — aliased destination-passing silently corrupts results).

/// Read-only view of `size` doubles.
class ConstVectorView {
 public:
  ConstVectorView() = default;
  ConstVectorView(const double* data, size_t size)
      : data_(data), size_(size) {}
  /// Implicit: any Vector is viewable.
  ConstVectorView(const Vector& v)  // NOLINT(google-explicit-constructor)
      : data_(v.data()), size_(v.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const double* data() const { return data_; }
  double operator[](size_t i) const {
    PW_CHECK_LT(i, size_);
    return data_[i];
  }

 private:
  const double* data_ = nullptr;
  size_t size_ = 0;
};

/// Mutable view of `size` doubles.
class VectorView {
 public:
  VectorView() = default;
  VectorView(double* data, size_t size) : data_(data), size_(size) {}
  /// Implicit: any Vector is viewable.
  VectorView(Vector& v)  // NOLINT(google-explicit-constructor)
      : data_(v.data()), size_(v.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double* data() const { return data_; }
  double& operator[](size_t i) const {
    PW_CHECK_LT(i, size_);
    return data_[i];
  }

  operator ConstVectorView() const {  // NOLINT(google-explicit-constructor)
    return ConstVectorView(data_, size_);
  }

  void Fill(double value) const {
    for (size_t i = 0; i < size_; ++i) data_[i] = value;
  }

 private:
  double* data_ = nullptr;
  size_t size_ = 0;
};

/// Read-only rows x cols view with a row stride (stride >= cols), so a
/// contiguous block of a larger matrix is viewable without copying.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const double* data, size_t rows, size_t cols, size_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    PW_CHECK_GE(stride, cols);
  }
  ConstMatrixView(const double* data, size_t rows, size_t cols)
      : ConstMatrixView(data, rows, cols, cols) {}
  /// Implicit: any Matrix is viewable.
  ConstMatrixView(const Matrix& m)  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()), stride_(m.cols()) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  const double* data() const { return data_; }
  const double* row(size_t r) const {
    PW_CHECK_LT(r, rows_);
    return data_ + r * stride_;
  }
  double operator()(size_t r, size_t c) const {
    PW_CHECK_LT(r, rows_);
    PW_CHECK_LT(c, cols_);
    return data_[r * stride_ + c];
  }
  /// Row `r` as a vector view.
  ConstVectorView RowView(size_t r) const { return {row(r), cols_}; }

  /// A rows x cols block starting at (r0, c0), sharing this view's data.
  ConstMatrixView Block(size_t r0, size_t c0, size_t rows, size_t cols) const {
    PW_CHECK_LE(r0 + rows, rows_);
    PW_CHECK_LE(c0 + cols, cols_);
    return ConstMatrixView(data_ + r0 * stride_ + c0, rows, cols, stride_);
  }

 private:
  const double* data_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
};

/// Mutable rows x cols view with a row stride.
class MutableMatrixView {
 public:
  MutableMatrixView() = default;
  MutableMatrixView(double* data, size_t rows, size_t cols, size_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    PW_CHECK_GE(stride, cols);
  }
  MutableMatrixView(double* data, size_t rows, size_t cols)
      : MutableMatrixView(data, rows, cols, cols) {}
  /// Implicit: any Matrix is viewable.
  MutableMatrixView(Matrix& m)  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()), stride_(m.cols()) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  double* data() const { return data_; }
  double* row(size_t r) const {
    PW_CHECK_LT(r, rows_);
    return data_ + r * stride_;
  }
  double& operator()(size_t r, size_t c) const {
    PW_CHECK_LT(r, rows_);
    PW_CHECK_LT(c, cols_);
    return data_[r * stride_ + c];
  }
  /// Row `r` as a vector view.
  VectorView RowView(size_t r) const { return {row(r), cols_}; }

  operator ConstMatrixView() const {  // NOLINT(google-explicit-constructor)
    return ConstMatrixView(data_, rows_, cols_, stride_);
  }

  MutableMatrixView Block(size_t r0, size_t c0, size_t rows,
                          size_t cols) const {
    PW_CHECK_LE(r0 + rows, rows_);
    PW_CHECK_LE(c0 + cols, cols_);
    return MutableMatrixView(data_ + r0 * stride_ + c0, rows, cols, stride_);
  }

  void Fill(double value) const {
    for (size_t r = 0; r < rows_; ++r) {
      double* p = data_ + r * stride_;
      for (size_t c = 0; c < cols_; ++c) p[c] = value;
    }
  }

 private:
  double* data_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
};

/// True when the two address ranges [a, a+an) and [b, b+bn) overlap.
/// Exposed for tests; kernels use it to reject aliased destinations.
bool RangesOverlap(const double* a, size_t an, const double* b, size_t bn);

/// True when the view's addressable storage overlaps the range.
bool ViewOverlaps(ConstMatrixView v, const double* p, size_t n);

// --- destination-passing kernels --------------------------------------
//
// Every kernel checks shapes and destination disjointness with
// PW_CHECK, then writes the destination completely (no prior zeroing
// needed by the caller). Loop orders match the value-semantic Matrix
// operations exactly, so results are bit-identical.

/// out = a * b (matrix product). out must be a.rows() x b.cols().
PW_NO_ALLOC void MultiplyInto(ConstMatrixView a, ConstMatrixView b, MutableMatrixView out);

/// out = a * x (matrix-vector product). out.size() == a.rows().
PW_NO_ALLOC void MatVecInto(ConstMatrixView a, ConstVectorView x, VectorView out);

/// out = a^T * b without materializing the transpose.
/// out must be a.cols() x b.cols().
PW_NO_ALLOC void TransposedTimesInto(ConstMatrixView a, ConstMatrixView b,
                         MutableMatrixView out);

/// out = a^T. out must be a.cols() x a.rows().
PW_NO_ALLOC void TransposeInto(ConstMatrixView a, MutableMatrixView out);

/// out(i, j) = a(rows[i], cols[j]) in a single pass (no intermediate
/// row-slice). out must be rows.size() x cols.size().
PW_NO_ALLOC void SelectSubmatrixInto(ConstMatrixView a, const std::vector<size_t>& rows,
                         const std::vector<size_t>& cols,
                         MutableMatrixView out);

/// out = a - b, elementwise. Shapes must match.
PW_NO_ALLOC void SubtractInto(ConstMatrixView a, ConstMatrixView b, MutableMatrixView out);

/// Copies src into dst (shapes must match; dst disjoint from src).
PW_NO_ALLOC void CopyInto(ConstMatrixView src, MutableMatrixView dst);

/// out(i, :) = a(rows[i], :). out must be rows.size() x a.cols().
PW_NO_ALLOC void SelectRowsInto(ConstMatrixView a,
                                const std::vector<size_t>& rows,
                                MutableMatrixView out);

// --- small k-space kernels (whitened class scoring) --------------------

/// out = A_R^T (x_R - center_R): the rows of `a` listed in `rows`,
/// weighted by the centered sample entries at the same indices and
/// summed. out.size() == a.cols(); x and center index like a's rows.
PW_NO_ALLOC void CenteredRowSumInto(ConstMatrixView a,
                                    const std::vector<size_t>& rows,
                                    ConstVectorView x, ConstVectorView center,
                                    VectorView out);

/// y += alpha * x. Sizes must match.
PW_NO_ALLOC void AxpyInto(double alpha, ConstVectorView x, VectorView y);

/// ||a||^2.
PW_NO_ALLOC double SquaredNorm(ConstVectorView a);

/// ||a - b||^2. Sizes must match.
PW_NO_ALLOC double SquaredDistance(ConstVectorView a, ConstVectorView b);

/// Orthonormalizes the rows of `a` in place by modified Gram-Schmidt
/// with row pivoting and one re-orthogonalization pass, and returns the
/// rank r: rows [0, r) then hold an orthonormal basis of the original
/// row space (rows [r, a.rows()) are left as scratch). Each step takes
/// the remaining row of largest norm; once that norm falls to
/// rcond times the first pivot's, the rest counts as dependent —
/// the pivoted-QR form of PseudoInverse's singular-value cutoff.
PW_NO_ALLOC size_t OrthonormalizeRows(MutableMatrixView a,
                                      double rcond = 1e-10);

/// v -= B^T (B v) for `basis` B with orthonormal rows: removes v's
/// component in B's row space (v.size() == basis.cols()).
PW_NO_ALLOC void ProjectOutRows(ConstMatrixView basis, VectorView v);

}  // namespace phasorwatch::linalg

#endif  // PHASORWATCH_LINALG_VIEWS_H_
