#include "reference/kronecker.hpp"

#include <vector>

#include "support/contracts.hpp"

namespace qs::transforms {

void apply_kronecker(std::span<double> v, const KroneckerProduct& kp) {
  require(v.size() == kp.dimension(), "apply_kronecker: dimension mismatch");

  // Apply one factor at a time; the factor of group i acts on bit range
  // [lo, lo + g_i), i.e. indices decompose as
  //   idx = high * (m << lo) + mid * (1 << lo) + low,  mid in [0, m)
  // and the factor contracts over `mid`.
  std::vector<double> tmp;
  unsigned lo = 0;
  for (std::size_t gi = 0; gi < kp.group_count(); ++gi) {
    const linalg::DenseMatrix& f = kp.factors()[gi];
    const std::size_t m = f.rows();
    const std::size_t lo_stride = std::size_t{1} << lo;
    const std::size_t block = m * lo_stride;
    tmp.resize(m);
    for (std::size_t high = 0; high < v.size(); high += block) {
      for (std::size_t low = 0; low < lo_stride; ++low) {
        const std::size_t base = high + low;
        for (std::size_t r = 0; r < m; ++r) {
          double acc = 0.0;
          for (std::size_t c = 0; c < m; ++c) {
            acc += f(r, c) * v[base + c * lo_stride];
          }
          tmp[r] = acc;
        }
        for (std::size_t r = 0; r < m; ++r) v[base + r * lo_stride] = tmp[r];
      }
    }
    lo += kp.group_bits(gi);
  }
}

void apply_kronecker_per_group(std::span<double> v, const KroneckerProduct& kp,
                               const parallel::Engine& engine) {
  require(v.size() == kp.dimension(), "apply_kronecker_per_group: dimension mismatch");
  double* data = v.data();
  unsigned lo = 0;
  for (std::size_t g = 0; g < kp.group_count(); ++g) {
    const linalg::DenseMatrix& f = kp.factors()[g];
    const std::size_t m = f.rows();
    const std::size_t lo_stride = std::size_t{1} << lo;
    const std::size_t items = v.size() / m;
    engine.dispatch(items, [data, &f, m, lo_stride](std::size_t begin, std::size_t end) {
      // Stack staging for the strided m-tuple: group sizes are a few bits
      // (m rarely beyond 16), so a per-lane heap vector would be pure
      // allocator traffic.
      constexpr std::size_t kStackTuple = 64;
      double stack_tmp[kStackTuple];
      std::vector<double> heap_tmp;
      double* tmp = stack_tmp;
      if (m > kStackTuple) {
        heap_tmp.resize(m);
        tmp = heap_tmp.data();
      }
      for (std::size_t id = begin; id < end; ++id) {
        const std::size_t high = id / lo_stride;
        const std::size_t low = id % lo_stride;
        const std::size_t base = high * (m * lo_stride) + low;
        for (std::size_t r = 0; r < m; ++r) {
          double acc = 0.0;
          for (std::size_t c = 0; c < m; ++c) {
            acc += f(r, c) * data[base + c * lo_stride];
          }
          tmp[r] = acc;
        }
        for (std::size_t r = 0; r < m; ++r) data[base + r * lo_stride] = tmp[r];
      }
    });
    lo += kp.group_bits(g);
  }
}

linalg::DenseMatrix kronecker_dense(const linalg::DenseMatrix& a,
                                    const linalg::DenseMatrix& b) {
  linalg::DenseMatrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t ia = 0; ia < a.rows(); ++ia) {
    for (std::size_t ja = 0; ja < a.cols(); ++ja) {
      const double aij = a(ia, ja);
      if (aij == 0.0) continue;
      for (std::size_t ib = 0; ib < b.rows(); ++ib) {
        for (std::size_t jb = 0; jb < b.cols(); ++jb) {
          out(ia * b.rows() + ib, ja * b.cols() + jb) = aij * b(ib, jb);
        }
      }
    }
  }
  return out;
}

linalg::DenseMatrix to_dense(const KroneckerProduct& kp) {
  // Fold right-to-left so that factors[0] ends up least significant:
  // result = factors[g-1] (x) ... (x) factors[0].
  const std::vector<linalg::DenseMatrix>& factors = kp.factors();
  linalg::DenseMatrix acc = factors.front();
  for (std::size_t i = 1; i < factors.size(); ++i) {
    acc = kronecker_dense(factors[i], acc);
  }
  return acc;
}

}  // namespace qs::transforms
