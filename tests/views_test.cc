#include "linalg/views.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace phasorwatch::linalg {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng.Uniform(-2.0, 2.0);
  }
  return m;
}

Vector RandomVector(size_t n, Rng& rng) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.Uniform(-2.0, 2.0);
  return v;
}

// The whole point of the destination-passing kernels is bit-identity
// with the value-semantic operations, so every parity check below uses
// EXPECT_EQ on raw doubles, not a tolerance.

TEST(ViewsTest, MultiplyIntoMatchesOperatorBitExact) {
  Rng rng(11);
  Matrix a = RandomMatrix(7, 5, rng);
  Matrix b = RandomMatrix(5, 9, rng);
  a(2, 3) = 0.0;  // exercise the zero-skip branch
  Matrix expected = a * b;
  Matrix out(7, 9);
  MultiplyInto(a, b, out);
  for (size_t r = 0; r < expected.rows(); ++r) {
    for (size_t c = 0; c < expected.cols(); ++c) {
      EXPECT_EQ(out(r, c), expected(r, c));
    }
  }
}

TEST(ViewsTest, MatVecIntoMatchesOperatorBitExact) {
  Rng rng(12);
  Matrix a = RandomMatrix(6, 8, rng);
  Vector x = RandomVector(8, rng);
  Vector expected = a * x;
  Vector out(6);
  MatVecInto(a, x, out);
  for (size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(out[i], expected[i]);
}

TEST(ViewsTest, TransposedTimesIntoMatchesBitExact) {
  Rng rng(13);
  Matrix a = RandomMatrix(6, 4, rng);
  Matrix b = RandomMatrix(6, 5, rng);
  Matrix expected = a.TransposedTimes(b);
  Matrix out(4, 5);
  TransposedTimesInto(a, b, out);
  for (size_t r = 0; r < expected.rows(); ++r) {
    for (size_t c = 0; c < expected.cols(); ++c) {
      EXPECT_EQ(out(r, c), expected(r, c));
    }
  }
}

TEST(ViewsTest, TransposeIntoMatchesBitExact) {
  Rng rng(14);
  Matrix a = RandomMatrix(5, 7, rng);
  Matrix expected = a.Transposed();
  Matrix out(7, 5);
  TransposeInto(a, out);
  for (size_t r = 0; r < expected.rows(); ++r) {
    for (size_t c = 0; c < expected.cols(); ++c) {
      EXPECT_EQ(out(r, c), expected(r, c));
    }
  }
}

TEST(ViewsTest, SelectSubmatrixSinglePassMatchesComposition) {
  Rng rng(15);
  Matrix a = RandomMatrix(8, 8, rng);
  std::vector<size_t> rows = {1, 3, 6};
  std::vector<size_t> cols = {0, 2, 5, 7};
  Matrix expected = a.SelectRows(rows).SelectCols(cols);
  Matrix single = a.SelectSubmatrix(rows, cols);
  ASSERT_EQ(single.rows(), rows.size());
  ASSERT_EQ(single.cols(), cols.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      EXPECT_EQ(single(r, c), expected(r, c));
    }
  }
  Matrix out(rows.size(), cols.size());
  SelectSubmatrixInto(a, rows, cols, out);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      EXPECT_EQ(out(r, c), expected(r, c));
    }
  }
}

TEST(ViewsTest, StridedBlockViewReadsTheRightCells) {
  Rng rng(16);
  Matrix a = RandomMatrix(6, 6, rng);
  ConstMatrixView block = ConstMatrixView(a).Block(1, 2, 3, 3);
  EXPECT_EQ(block.stride(), 6u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(block(r, c), a(1 + r, 2 + c));
    }
  }
}

TEST(ViewsTest, StridedDestinationWritesOnlyTheBlock) {
  Matrix dst(5, 5);
  MutableMatrixView(dst).Fill(-1.0);
  Rng rng(17);
  Matrix a = RandomMatrix(2, 3, rng);
  Matrix b = RandomMatrix(3, 2, rng);
  Matrix expected = a * b;
  MultiplyInto(a, b, MutableMatrixView(dst).Block(1, 1, 2, 2));
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      if (r >= 1 && r <= 2 && c >= 1 && c <= 2) {
        EXPECT_EQ(dst(r, c), expected(r - 1, c - 1));
      } else {
        EXPECT_EQ(dst(r, c), -1.0);
      }
    }
  }
}

TEST(ViewsTest, CopyIntoAndSubtractInto) {
  Rng rng(18);
  Matrix a = RandomMatrix(4, 4, rng);
  Matrix b = RandomMatrix(4, 4, rng);
  Matrix copy(4, 4);
  CopyInto(a, copy);
  Matrix diff(4, 4);
  SubtractInto(a, b, diff);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(copy(r, c), a(r, c));
      EXPECT_EQ(diff(r, c), a(r, c) - b(r, c));
    }
  }
}

TEST(ViewsTest, CenteredRowSumMatchesTransposedProduct) {
  Rng rng(21);
  Matrix a = RandomMatrix(7, 4, rng);
  Vector x = RandomVector(7, rng);
  Vector center = RandomVector(7, rng);
  const std::vector<size_t> rows = {0, 2, 3, 6};
  Vector out(4);
  CenteredRowSumInto(a, rows, x, center, out);
  for (size_t j = 0; j < 4; ++j) {
    double want = 0.0;
    for (size_t r : rows) want += a(r, j) * (x[r] - center[r]);
    EXPECT_NEAR(out[j], want, 1e-14);
  }
}

TEST(ViewsTest, VectorKernels) {
  Vector a{1.0, -2.0, 3.0};
  Vector b{0.5, 1.0, -1.0};
  EXPECT_EQ(SquaredNorm(a), 14.0);
  EXPECT_EQ(SquaredDistance(a, b), 0.25 + 9.0 + 16.0);
  AxpyInto(-2.0, b, a);
  EXPECT_EQ(a[0], 0.0);
  EXPECT_EQ(a[1], -4.0);
  EXPECT_EQ(a[2], 5.0);
}

TEST(ViewsTest, OrthonormalizeRowsSpansTheRowSpace) {
  Rng rng(22);
  Matrix original = RandomMatrix(5, 9, rng);
  Matrix q = original;
  ASSERT_EQ(OrthonormalizeRows(q), 5u);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      double dot = 0.0;
      for (size_t c = 0; c < 9; ++c) dot += q(i, c) * q(j, c);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-14);
    }
  }
  // Every original row lies in the span: projecting it out leaves ~0.
  for (size_t i = 0; i < 5; ++i) {
    Vector row = original.Row(i);
    ProjectOutRows(q, row);
    EXPECT_LT(std::sqrt(SquaredNorm(row)), 1e-13);
  }
  // A vector off the span keeps exactly its orthogonal part.
  Vector v = RandomVector(9, rng);
  ProjectOutRows(q, v);
  for (size_t i = 0; i < 5; ++i) {
    double dot = 0.0;
    for (size_t c = 0; c < 9; ++c) dot += q(i, c) * v[c];
    EXPECT_NEAR(dot, 0.0, 1e-14);
  }
}

TEST(ViewsTest, OrthonormalizeRowsDropsDependentRows) {
  Rng rng(23);
  Matrix a = RandomMatrix(4, 6, rng);
  // Row 2 = row 0 + 2 row 1; row 3 is zero.
  for (size_t c = 0; c < 6; ++c) {
    a(2, c) = a(0, c) + 2.0 * a(1, c);
    a(3, c) = 0.0;
  }
  EXPECT_EQ(OrthonormalizeRows(a), 2u);
  Matrix zero(3, 4);
  EXPECT_EQ(OrthonormalizeRows(zero), 0u);
}

TEST(ViewsTest, RangesOverlapDetection) {
  double buf[10] = {};
  EXPECT_TRUE(RangesOverlap(buf, 5, buf + 4, 3));
  EXPECT_FALSE(RangesOverlap(buf, 5, buf + 5, 5));
  EXPECT_FALSE(RangesOverlap(buf, 0, buf, 5));  // empty range
}

TEST(ViewsDeathTest, AliasedDestinationAborts) {
  Rng rng(19);
  Matrix a = RandomMatrix(4, 4, rng);
  Matrix b = RandomMatrix(4, 4, rng);
  // Writing the product over one of its own inputs would corrupt the
  // remaining reads; the kernel must refuse.
  EXPECT_DEATH(MultiplyInto(a, b, a), "PW_CHECK failed");
}

TEST(ViewsDeathTest, ShapeMismatchAborts) {
  Rng rng(20);
  Matrix a = RandomMatrix(3, 4, rng);
  Matrix b = RandomMatrix(4, 2, rng);
  Matrix wrong(3, 3);
  EXPECT_DEATH(MultiplyInto(a, b, wrong), "PW_CHECK failed");
}

}  // namespace
}  // namespace phasorwatch::linalg
