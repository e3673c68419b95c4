// Unit tests for dense vector kernels.
#include "linalg/vector_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "linalg/tree_reduce.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::linalg {
namespace {

TEST(VectorOps, Axpy) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{10.0, 20.0, 30.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
}

TEST(VectorOps, AxpyRejectsDimensionMismatch) {
  std::vector<double> x{1.0};
  std::vector<double> y{1.0, 2.0};
  EXPECT_THROW(axpy(1.0, x, y), qs::precondition_error);
}

TEST(VectorOps, Scale) {
  std::vector<double> x{1.0, -2.0};
  scale(x, -0.5);
  EXPECT_DOUBLE_EQ(x[0], -0.5);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
}

TEST(VectorOps, DotAndNorms) {
  std::vector<double> x{3.0, -4.0};
  EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(norm1(x), 7.0);
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(x), 4.0);
  EXPECT_DOUBLE_EQ(sum(x), -1.0);
}

TEST(VectorOps, Norm2AvoidsOverflow) {
  // Naive sum of squares overflows; the scaled algorithm must not.
  std::vector<double> x{1e200, 1e200};
  EXPECT_DOUBLE_EQ(norm2(x), 1e200 * std::sqrt(2.0));
}

TEST(VectorOps, Norm2OfZeroVector) {
  std::vector<double> x{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(norm2(x), 0.0);
}

TEST(VectorOps, Normalize1) {
  std::vector<double> x{1.0, 3.0};
  const double before = normalize1(x);
  EXPECT_DOUBLE_EQ(before, 4.0);
  EXPECT_DOUBLE_EQ(x[0], 0.25);
  EXPECT_DOUBLE_EQ(x[1], 0.75);
}

TEST(VectorOps, Normalize2) {
  std::vector<double> x{3.0, 4.0};
  const double before = normalize2(x);
  EXPECT_DOUBLE_EQ(before, 5.0);
  EXPECT_NEAR(norm2(x), 1.0, 1e-15);
}

TEST(VectorOps, NormalizeRejectsZeroVector) {
  std::vector<double> x{0.0, 0.0};
  EXPECT_THROW(normalize1(x), qs::precondition_error);
  EXPECT_THROW(normalize2(x), qs::precondition_error);
}

TEST(VectorOps, MaxAbsDiff) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{1.0, 2.5, 2.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(x, y), 1.0);
}

TEST(VectorOps, CopyAndHadamard) {
  std::vector<double> x{1.0, 2.0};
  std::vector<double> z(2);
  copy(x, z);
  EXPECT_EQ(z, x);
  std::vector<double> d{3.0, 0.5};
  hadamard_scale(z, d);
  EXPECT_DOUBLE_EQ(z[0], 3.0);
  EXPECT_DOUBLE_EQ(z[1], 1.0);
}

TEST(VectorOps, DotRejectsDimensionMismatch) {
  std::vector<double> x{1.0};
  std::vector<double> y{1.0, 2.0};
  EXPECT_THROW(dot(x, y), qs::precondition_error);
  EXPECT_THROW(copy(x, y), qs::precondition_error);
  EXPECT_THROW(max_abs_diff(x, y), qs::precondition_error);
  std::vector<double> z{1.0, 2.0};
  EXPECT_THROW(hadamard_scale(z, x), qs::precondition_error);
}

TEST(TreeReduceRows, EveryColumnIsTheTreeReduceOfItsRows) {
  // Values spread over 2^+-30 make every change of summation order visible.
  // Lengths cover one row, non-powers of two, a single leaf, many leaves,
  // sub-ranges (an aligned block and a ragged tail), and widths from one
  // column through rows wider than a whole leaf; the compile-time widths
  // must give the runtime width's bits.
  Xoshiro256 rng(11);
  for (const std::size_t width : {1, 2, 3, 8, 16, 300}) {
    for (const std::size_t rows : {1, 2, 3, 7, 64, 1000, 4096}) {
      std::vector<double> panel(rows * width);
      for (double& v : panel) {
        const int exponent = static_cast<int>(rng.uniform_index(61)) - 30;
        v = std::ldexp(rng.uniform(0.5, 1.0), exponent);
      }
      const auto row = [&panel, width](std::size_t i, double* v) {
        for (std::size_t c = 0; c < width; ++c) v[c] = panel[i * width + c];
      };
      std::vector<double> scratch(tree_reduce_rows_scratch(width, rows));
      std::vector<double> out(width), fixed(width);
      const std::pair<std::size_t, std::size_t> ranges[] = {
          {0, rows}, {rows / 2, rows}, {rows / 4, rows / 2}};
      for (const auto& [begin, end] : ranges) {
        SCOPED_TRACE(testing::Message() << "width " << width << " rows [" << begin
                                        << ", " << end << ")");
        tree_reduce_rows(begin, end, width, row, out.data(), scratch.data());
        if (width == 8) {
          tree_reduce_rows<8>(begin, end, width, row, fixed.data(), scratch.data());
          EXPECT_EQ(fixed, out);
        }
        for (std::size_t c = 0; c < width; ++c) {
          const auto leaf = [&panel, width, c](std::size_t i) {
            return panel[i * width + c];
          };
          ASSERT_EQ(out[c], tree_reduce(begin, end, leaf)) << "column " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qs::linalg
