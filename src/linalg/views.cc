#include "linalg/views.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace phasorwatch::linalg {

bool RangesOverlap(const double* a, size_t an, const double* b, size_t bn) {
  if (an == 0 || bn == 0) return false;
  // Comparing pointers into distinct allocations is formally unspecified;
  // uintptr_t comparison is the portable idiom for overlap detection.
  auto lo_a = reinterpret_cast<uintptr_t>(a);
  auto hi_a = reinterpret_cast<uintptr_t>(a + an);
  auto lo_b = reinterpret_cast<uintptr_t>(b);
  auto hi_b = reinterpret_cast<uintptr_t>(b + bn);
  return lo_a < hi_b && lo_b < hi_a;
}

bool ViewOverlaps(ConstMatrixView v, const double* p, size_t n) {
  if (v.empty()) return false;
  // The addressable span of a strided view runs from its first element
  // to the last element of its last row.
  size_t span = (v.rows() - 1) * v.stride() + v.cols();
  return RangesOverlap(v.data(), span, p, n);
}

namespace {

size_t OutSpan(MutableMatrixView out) {
  if (out.empty()) return 0;
  return (out.rows() - 1) * out.stride() + out.cols();
}

}  // namespace

PW_NO_ALLOC void MultiplyInto(ConstMatrixView a, ConstMatrixView b, MutableMatrixView out) {
  PW_CHECK_EQ(a.cols(), b.rows());
  PW_CHECK_EQ(out.rows(), a.rows());
  PW_CHECK_EQ(out.cols(), b.cols());
  PW_CHECK(!ViewOverlaps(a, out.data(), OutSpan(out)));
  PW_CHECK(!ViewOverlaps(b, out.data(), OutSpan(out)));
  out.Fill(0.0);
  // Same i-k-j order and zero-skip as Matrix::operator*: results are
  // bit-identical to the value API.
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i);
    double* out_row = out.row(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      double av = a_row[k];
      if (av == 0.0) continue;
      const double* b_row = b.row(k);
      for (size_t j = 0; j < b.cols(); ++j) out_row[j] += av * b_row[j];
    }
  }
}

PW_NO_ALLOC void MatVecInto(ConstMatrixView a, ConstVectorView x, VectorView out) {
  PW_CHECK_EQ(a.cols(), x.size());
  PW_CHECK_EQ(out.size(), a.rows());
  PW_CHECK(!ViewOverlaps(a, out.data(), out.size()));
  PW_CHECK(!RangesOverlap(x.data(), x.size(), out.data(), out.size()));
  for (size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    const double* row = a.row(i);
    for (size_t j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    out[i] = s;
  }
}

PW_NO_ALLOC void TransposedTimesInto(ConstMatrixView a, ConstMatrixView b,
                         MutableMatrixView out) {
  PW_CHECK_EQ(a.rows(), b.rows());
  PW_CHECK_EQ(out.rows(), a.cols());
  PW_CHECK_EQ(out.cols(), b.cols());
  PW_CHECK(!ViewOverlaps(a, out.data(), OutSpan(out)));
  PW_CHECK(!ViewOverlaps(b, out.data(), OutSpan(out)));
  out.Fill(0.0);
  // Same k-i-j order and zero-skip as Matrix::TransposedTimes.
  for (size_t k = 0; k < a.rows(); ++k) {
    const double* a_row = a.row(k);
    const double* b_row = b.row(k);
    for (size_t i = 0; i < a.cols(); ++i) {
      double av = a_row[i];
      if (av == 0.0) continue;
      double* out_row = out.row(i);
      for (size_t j = 0; j < b.cols(); ++j) out_row[j] += av * b_row[j];
    }
  }
}

PW_NO_ALLOC void TransposeInto(ConstMatrixView a, MutableMatrixView out) {
  PW_CHECK_EQ(out.rows(), a.cols());
  PW_CHECK_EQ(out.cols(), a.rows());
  PW_CHECK(!ViewOverlaps(a, out.data(), OutSpan(out)));
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i);
    for (size_t j = 0; j < a.cols(); ++j) out(j, i) = a_row[j];
  }
}

PW_NO_ALLOC void SelectSubmatrixInto(ConstMatrixView a, const std::vector<size_t>& rows,
                         const std::vector<size_t>& cols,
                         MutableMatrixView out) {
  PW_CHECK_EQ(out.rows(), rows.size());
  PW_CHECK_EQ(out.cols(), cols.size());
  PW_CHECK(!ViewOverlaps(a, out.data(), OutSpan(out)));
  // Validate the index sets once up front: the copy loop below touches
  // rows.size() * cols.size() elements, so per-element PW_CHECKs would
  // dominate the kernel. The debug build keeps the inner-loop contract.
  for (size_t i = 0; i < rows.size(); ++i) PW_CHECK_LT(rows[i], a.rows());
  for (size_t j = 0; j < cols.size(); ++j) PW_CHECK_LT(cols[j], a.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* a_row = a.row(rows[i]);
    double* out_row = out.row(i);
    for (size_t j = 0; j < cols.size(); ++j) {
      PW_DCHECK_BOUND(cols[j], a.cols());
      out_row[j] = a_row[cols[j]];
    }
  }
}

PW_NO_ALLOC void SubtractInto(ConstMatrixView a, ConstMatrixView b, MutableMatrixView out) {
  PW_CHECK_EQ(a.rows(), b.rows());
  PW_CHECK_EQ(a.cols(), b.cols());
  PW_CHECK_EQ(out.rows(), a.rows());
  PW_CHECK_EQ(out.cols(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i);
    const double* b_row = b.row(i);
    double* out_row = out.row(i);
    for (size_t j = 0; j < a.cols(); ++j) out_row[j] = a_row[j] - b_row[j];
  }
}

PW_NO_ALLOC void CopyInto(ConstMatrixView src, MutableMatrixView dst) {
  PW_CHECK_EQ(dst.rows(), src.rows());
  PW_CHECK_EQ(dst.cols(), src.cols());
  PW_CHECK(!ViewOverlaps(src, dst.data(), OutSpan(dst)));
  for (size_t i = 0; i < src.rows(); ++i) {
    const double* s = src.row(i);
    double* d = dst.row(i);
    for (size_t j = 0; j < src.cols(); ++j) d[j] = s[j];
  }
}

PW_NO_ALLOC void SelectRowsInto(ConstMatrixView a,
                                const std::vector<size_t>& rows,
                                MutableMatrixView out) {
  PW_CHECK_EQ(out.rows(), rows.size());
  PW_CHECK_EQ(out.cols(), a.cols());
  PW_CHECK(!ViewOverlaps(a, out.data(), OutSpan(out)));
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* src = a.row(rows[i]);
    double* dst = out.row(i);
    for (size_t j = 0; j < a.cols(); ++j) dst[j] = src[j];
  }
}

PW_NO_ALLOC void CenteredRowSumInto(ConstMatrixView a,
                                    const std::vector<size_t>& rows,
                                    ConstVectorView x, ConstVectorView center,
                                    VectorView out) {
  PW_CHECK_EQ(out.size(), a.cols());
  PW_CHECK_EQ(x.size(), a.rows());
  PW_CHECK_EQ(center.size(), a.rows());
  PW_CHECK(!ViewOverlaps(a, out.data(), out.size()));
  out.Fill(0.0);
  double* acc = out.data();
  for (size_t r : rows) {
    const double z = x[r] - center[r];
    const double* a_row = a.row(r);
    for (size_t j = 0; j < a.cols(); ++j) acc[j] += z * a_row[j];
  }
}

namespace {

double RowDot(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t j = 0; j < n; ++j) sum += a[j] * b[j];
  return sum;
}

// a -= (a . q) q for a unit vector q.
void RemoveComponent(const double* q, double* a, size_t n) {
  const double dot = RowDot(a, q, n);
  for (size_t j = 0; j < n; ++j) a[j] -= dot * q[j];
}

}  // namespace

PW_NO_ALLOC void AxpyInto(double alpha, ConstVectorView x, VectorView y) {
  PW_CHECK_EQ(x.size(), y.size());
  const double* xs = x.data();
  double* ys = y.data();
  for (size_t i = 0; i < y.size(); ++i) ys[i] += alpha * xs[i];
}

PW_NO_ALLOC double SquaredNorm(ConstVectorView a) {
  return RowDot(a.data(), a.data(), a.size());
}

PW_NO_ALLOC double SquaredDistance(ConstVectorView a, ConstVectorView b) {
  PW_CHECK_EQ(a.size(), b.size());
  const double* as = a.data();
  const double* bs = b.data();
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = as[i] - bs[i];
    sum += d * d;
  }
  return sum;
}

PW_NO_ALLOC size_t OrthonormalizeRows(MutableMatrixView a, double rcond) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  double first_norm = 0.0;
  for (size_t j = 0; j < m; ++j) {
    // Pivot: the remaining row with the largest norm.
    size_t pivot = j;
    double pivot_sq = -1.0;
    for (size_t i = j; i < m; ++i) {
      const double sq = RowDot(a.row(i), a.row(i), n);
      if (sq > pivot_sq) {
        pivot = i;
        pivot_sq = sq;
      }
    }
    double* q = a.row(j);
    if (pivot != j) {
      double* p = a.row(pivot);
      for (size_t c = 0; c < n; ++c) std::swap(q[c], p[c]);
    }
    // Second Gram-Schmidt pass against the accepted rows: one
    // re-orthogonalization restores orthogonality to working precision.
    for (size_t p = 0; p < j; ++p) RemoveComponent(a.row(p), q, n);
    const double norm = std::sqrt(RowDot(q, q, n));
    if (j == 0) first_norm = norm;
    if (!(norm > rcond * first_norm)) return j;
    const double inv = 1.0 / norm;
    for (size_t c = 0; c < n; ++c) q[c] *= inv;
    for (size_t i = j + 1; i < m; ++i) RemoveComponent(q, a.row(i), n);
  }
  return m;
}

PW_NO_ALLOC void ProjectOutRows(ConstMatrixView basis, VectorView v) {
  PW_CHECK_EQ(basis.cols(), v.size());
  PW_CHECK(!ViewOverlaps(basis, v.data(), v.size()));
  for (size_t r = 0; r < basis.rows(); ++r) {
    RemoveComponent(basis.row(r), v.data(), v.size());
  }
}

}  // namespace phasorwatch::linalg
