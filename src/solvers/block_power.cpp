#include "solvers/block_power.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "core/workspace.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/tree_reduce.hpp"
#include "parallel/row_blocks.hpp"
#include "support/contracts.hpp"

namespace qs::solvers {
namespace {

/// Smallest SIMD-friendly panel width >= k: 2, 4, 8, then multiples of 8.
std::size_t default_block(unsigned k) {
  if (k <= 2) return 2;
  if (k <= 4) return 4;
  return ((static_cast<std::size_t>(k) + 7) / 8) * 8;
}

/// Runs fn(M) with M = m as a compile-time constant for the default panel
/// widths 2, 4 and 8 (fixed trip counts let the per-row loops unroll and
/// vectorise), and with M = 0 (m at run time) for any other width.
template <typename Fn>
void with_width(std::size_t m, const Fn& fn) {
  switch (m) {
    case 2: return fn(std::integral_constant<std::size_t, 2>{});
    case 4: return fn(std::integral_constant<std::size_t, 4>{});
    case 8: return fn(std::integral_constant<std::size_t, 8>{});
    default: return fn(std::integral_constant<std::size_t, 0>{});
  }
}

/// The panel passes of one solve, on parallel::RowBlocks: every sum is
/// the tree_reduce of its rows (linalg::tree_reduce_rows in per-block
/// scratch), so every engine gives the serial bits.  All scratch is
/// allocated here, once per solve.
class PanelPasses {
 public:
  PanelPasses(const parallel::Engine& engine, std::size_t n, std::size_t m)
      : m_(m),
        blocks_(engine, n, m, std::max(m * m, 2 * m),
                std::max(linalg::tree_reduce_rows_scratch(m * m, n),
                         linalg::tree_reduce_rows_scratch(2 * m, n))) {}

  /// G = P1^T P2 over two interleaved n x m panels.
  linalg::DenseMatrix gram(const double* p1, const double* p2) {
    linalg::DenseMatrix g(m_, m_);
    with_width(m_, [&](auto width) {
      constexpr std::size_t M = width;
      const std::size_t m = M != 0 ? M : m_;
      const auto row = [p1, p2, m](std::size_t i, double* __restrict v) {
        const std::size_t w = M != 0 ? M : m;
        const double* r1 = p1 + i * w;
        const double* r2 = p2 + i * w;
        for (std::size_t a = 0; a < w; ++a) {
          for (std::size_t b = 0; b < w; ++b) v[a * w + b] = r1[a] * r2[b];
        }
      };
      blocks_.sums(m * m, [&](std::size_t begin, std::size_t end, double* partial) {
        linalg::tree_reduce_rows<M * M>(begin, end, m * m, row, partial,
                                        blocks_.scratch(begin));
      }, g.data().data());
    });
    return g;
  }

  /// In-place panel rotation P <- P R with R m x m (row-wise small
  /// mat-vec); each block stages its rows in its scratch.
  void rotate(double* p, const linalg::DenseMatrix& r) {
    with_width(m_, [&](auto width) {
      constexpr std::size_t M = width;
      const std::size_t m = M != 0 ? M : m_;
      blocks_.run([&, p, m](std::size_t begin, std::size_t end) {
        const std::size_t w = M != 0 ? M : m;
        double* tmp = blocks_.scratch(begin);
        for (std::size_t i = begin; i < end; ++i) {
          double* row = p + i * w;
          for (std::size_t b = 0; b < w; ++b) {
            double acc = 0.0;
            for (std::size_t a = 0; a < w; ++a) acc += row[a] * r(a, b);
            tmp[b] = acc;
          }
          std::memcpy(row, tmp, w * sizeof(double));
        }
      });
    });
  }

  /// Orthonormalises the panel's columns by the symmetric inverse square
  /// root of its Gram matrix: P <- P U diag(1/sqrt(s)) with G = U diag(s)
  /// U^T.  The jacobi eigenvalues come out descending, so the leading
  /// directions of the panel stay in the leading columns.
  void orthonormalize(double* p) {
    const std::size_t m = m_;
    const linalg::SymmetricEigen eig = linalg::jacobi_eigen(gram(p, p));
    const double smax = std::max(eig.values.front(), 1e-300);
    linalg::DenseMatrix r(m, m);
    for (std::size_t b = 0; b < m; ++b) {
      // Columns with numerically collapsed directions get zeroed rather
      // than amplified; the next product re-fills them from the operator's
      // range.
      const double s = eig.values[b];
      const double inv = s > 1e-28 * smax ? 1.0 / std::sqrt(s) : 0.0;
      for (std::size_t a = 0; a < m; ++a) r(a, b) = eig.vectors(a, b) * inv;
    }
    rotate(p, r);
  }

  /// Per-column relative Ritz residuals ||ry_j - theta_j rx_j|| /
  /// (|theta_j| ||rx_j||), both sums in one pass over the two panels.
  std::vector<double> residuals(const double* rx, const double* ry,
                                const std::vector<double>& theta) {
    const std::size_t m = m_;
    std::vector<double> acc(2 * m);  // [num_0..num_{m-1}, den_0..den_{m-1}]
    const double* th = theta.data();
    with_width(m, [&](auto width) {
      constexpr std::size_t M = width;
      const auto row = [rx, ry, th, m](std::size_t i, double* __restrict v) {
        const std::size_t w = M != 0 ? M : m;
        const double* x = rx + i * w;
        const double* y = ry + i * w;
        for (std::size_t j = 0; j < w; ++j) {
          const double d = y[j] - th[j] * x[j];
          v[j] = d * d;
          v[w + j] = x[j] * x[j];
        }
      };
      blocks_.sums(2 * m, [&](std::size_t begin, std::size_t end, double* partial) {
        linalg::tree_reduce_rows<2 * M>(begin, end, 2 * m, row, partial,
                                        blocks_.scratch(begin));
      }, acc.data());
    });
    std::vector<double> res(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      const double scale = std::abs(theta[j]) * std::sqrt(acc[m + j]);
      res[j] = scale > 0.0 ? std::sqrt(acc[j]) / scale : std::sqrt(acc[j]);
    }
    return res;
  }

 private:
  std::size_t m_;
  parallel::RowBlocks blocks_;
};

/// Deterministic pseudo-random fill for the guard columns (splitmix64).
double hash_unit(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x = x ^ (x >> 31);
  return static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5;
}

/// Resolved panel width for (options, n): the explicit block or the default
/// SIMD-friendly width, clamped to the dimension.
std::size_t resolve_block(const BlockPowerOptions& options, std::size_t n) {
  std::size_t m = options.block != 0 ? options.block : default_block(options.k);
  require(m >= options.k, "block power: block width must be >= k");
  return std::min(m, n);
}

void validate(const core::FmmpOperator& op, const BlockPowerOptions& options) {
  require(options.k >= 1, "block power: need k >= 1 eigenpairs");
  require(op.formulation() == core::Formulation::symmetric,
          "block power: operator must use the symmetric formulation");
  require(options.ritz_every >= 1, "block power: ritz_every must be >= 1");
  require(options.max_iterations >= 1, "block power: need at least one iteration");
  require(options.k <= op.dimension(), "block power: k exceeds the operator dimension");
}

/// The subspace loop, shared by cold starts and resumes.  On entry `x`
/// holds the orthonormalised starting panel (interleaved n x m); a resume
/// passes the checkpointed panel verbatim, which is exactly the state the
/// uninterrupted run had at the bottom of the corresponding round.
BlockPowerResult run_block_loop(const core::FmmpOperator& op,
                                const BlockPowerOptions& options,
                                IterationDriver driver, PanelPasses& passes,
                                std::span<double> x, std::span<double> y,
                                std::size_t m, unsigned start_iterations) {
  const std::size_t n = op.dimension();

  BlockPowerResult result;
  result.iterations = start_iterations;
  std::vector<double> theta;
  std::vector<double> residuals;
  while (result.iterations < options.max_iterations) {
    // Advance the subspace ritz_every products, re-orthonormalising between
    // products so the columns do not all collapse onto the dominant pair.
    for (unsigned s = 0; s < options.ritz_every; ++s) {
      if (s > 0) {
        std::memcpy(x.data(), y.data(), y.size() * sizeof(double));
        passes.orthonormalize(x.data());
      }
      op.apply_panel(x, y, m);
      ++result.iterations;
      if (result.iterations >= options.max_iterations) break;
    }

    // Rayleigh-Ritz on span(X): A = X^T W X, rotate both panels onto the
    // Ritz basis, and read off the per-pair residuals.
    linalg::DenseMatrix a = passes.gram(x.data(), y.data());
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = i + 1; j < m; ++j) {
        const double sym = 0.5 * (a(i, j) + a(j, i));
        a(i, j) = sym;
        a(j, i) = sym;
      }
    }
    const linalg::SymmetricEigen eig = linalg::jacobi_eigen(a);
    theta = eig.values;
    passes.rotate(x.data(), eig.vectors);
    passes.rotate(y.data(), eig.vectors);
    residuals = passes.residuals(x.data(), y.data(), theta);

    // Health guard over the k wanted pairs: a poisoned panel (NaN product,
    // overflowed Gram matrix) is reported structurally instead of silently
    // returning converged = false.
    if (!driver.guard(std::span<const double>(theta.data(), options.k), result) ||
        !driver.guard(std::span<const double>(residuals.data(), options.k),
                      result)) {
      break;
    }
    result.eigenvalue = theta.front();
    double worst = 0.0;
    for (unsigned j = 0; j < options.k; ++j) worst = std::max(worst, residuals[j]);
    result.residual = worst;
    // One driver iteration per extraction, observed on the worst wanted
    // residual: "all k pairs within tolerance" is exactly "worst <=
    // tolerance", so the driver's convergence test matches the historical
    // per-pair check bit for bit.
    const IterationDriver::Verdict verdict =
        driver.observe(result.iterations, result.residual, result);
    if (verdict == IterationDriver::Verdict::cancelled &&
        driver.checkpointing()) {
      // Cancellation flushes the same orthonormalised next-subspace panel
      // the periodic checkpoint would persist, so an interrupted run
      // resumes at this extraction.
      std::memcpy(x.data(), y.data(), y.size() * sizeof(double));
      passes.orthonormalize(x.data());
      driver.write_checkpoint(result.iterations, result, x, result.iterations,
                              static_cast<double>(m));
      break;
    }
    if (verdict != IterationDriver::Verdict::proceed) break;

    // Next subspace: the images in Ritz order, orthonormalised.  This panel
    // is the resume point: checkpointing it (rather than the Ritz vectors)
    // lets a resumed run re-enter the advance loop with bit-identical state.
    std::memcpy(x.data(), y.data(), y.size() * sizeof(double));
    passes.orthonormalize(x.data());
    driver.maybe_checkpoint(result.iterations, result, x, result.iterations,
                            static_cast<double>(m));
  }

  // Extract the k leading Ritz pairs from the last extraction (X holds the
  // Ritz vectors of the final Rayleigh-Ritz step).
  const unsigned k = options.k;
  if (theta.size() >= k) {
    result.eigenvalues.assign(theta.begin(), theta.begin() + k);
    result.residuals.assign(residuals.begin(), residuals.begin() + k);
    result.eigenvectors.resize(k);
    for (unsigned j = 0; j < k; ++j) {
      std::vector<double>& v = result.eigenvectors[j];
      v.resize(n);
      double norm2 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = x[i * m + j];
        norm2 += v[i] * v[i];
      }
      const double inv = norm2 > 0.0 ? 1.0 / std::sqrt(norm2) : 0.0;
      for (std::size_t i = 0; i < n; ++i) v[i] *= inv;
    }
  }
  return result;
}

/// Converts the symmetric-formulation Ritz vectors to concentration vectors
/// of the right formulation: x_i = v_i / sqrt(f_i), 1-norm normalised, sign
/// fixed so the largest-magnitude entry is positive.
void to_concentrations(BlockPowerResult& result, const core::Landscape& landscape) {
  const auto f = landscape.values();
  for (std::vector<double>& v : result.eigenvectors) {
    double amax = 0.0;
    double at_amax = 0.0;
    double abs_sum = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = f[i] > 0.0 ? v[i] / std::sqrt(f[i]) : 0.0;
      abs_sum += std::abs(v[i]);
      if (std::abs(v[i]) > amax) {
        amax = std::abs(v[i]);
        at_amax = v[i];
      }
    }
    const double scale =
        abs_sum > 0.0 ? (at_amax < 0.0 ? -1.0 : 1.0) / abs_sum : 0.0;
    for (double& e : v) e *= scale;
  }
}

}  // namespace

BlockPowerResult block_power_iteration(const core::FmmpOperator& op,
                                       const BlockPowerOptions& options) {
  validate(op, options);
  const std::size_t n = op.dimension();
  const std::size_t m = resolve_block(options, n);

  IterationDriver driver(options, io::SolverKind::block_power, n);

  core::Workspace local_workspace;
  core::Workspace& workspace =
      options.workspace != nullptr ? *options.workspace : local_workspace;
  std::span<double> x = workspace.take(core::Workspace::Slot::panel, n * m);
  std::span<double> y = workspace.take(core::Workspace::Slot::panel_image, n * m);

  // Starting panel: column 0 is the landscape start mapped to the symmetric
  // formulation (v_sym = sqrt(f) .* x_R, with x_R = f the paper's start),
  // guard columns a fixed pseudo-random basis.
  const auto f = op.landscape().values();
  for (std::size_t i = 0; i < n; ++i) {
    x[i * m] = std::sqrt(f[i]) * f[i];
    for (std::size_t j = 1; j < m; ++j) {
      x[i * m + j] = hash_unit(i * 0x100000001b3ull + j);
    }
  }
  PanelPasses passes(parallel::engine_or_serial(options.engine), n, m);
  passes.orthonormalize(x.data());
  return run_block_loop(op, options, std::move(driver), passes, x, y, m, 0);
}

BlockPowerResult resume_block_power_iteration(const core::FmmpOperator& op,
                                              const io::SolverCheckpoint& checkpoint,
                                              const BlockPowerOptions& options) {
  validate(op, options);
  const std::size_t n = op.dimension();
  const std::size_t m = resolve_block(options, n);
  require(checkpoint.eigenvector.size() == n * m,
          "resume block power: checkpoint panel does not match n x m");

  IterationDriver driver(options, io::SolverKind::block_power, n);
  IterationTrace trace;
  BlockPowerResult out;
  if (!restore_trace(checkpoint, io::SolverKind::block_power, trace, out)) {
    out.eigenvalue = trace.eigenvalue;
    out.residual = trace.residual;
    out.iterations = trace.start_iteration;
    return out;
  }
  require(static_cast<std::size_t>(trace.aux) == m,
          "resume block power: checkpoint panel width does not match options");
  driver.restore(checkpoint);

  core::Workspace local_workspace;
  core::Workspace& workspace =
      options.workspace != nullptr ? *options.workspace : local_workspace;
  std::span<double> x = workspace.take(core::Workspace::Slot::panel, n * m);
  std::span<double> y = workspace.take(core::Workspace::Slot::panel_image, n * m);
  std::memcpy(x.data(), trace.iterate.data(), n * m * sizeof(double));
  PanelPasses passes(parallel::engine_or_serial(options.engine), n, m);
  return run_block_loop(op, options, std::move(driver), passes, x, y, m,
                        trace.start_iteration);
}

BlockPowerResult top_k_spectrum(const core::MutationModel& model,
                                const core::Landscape& landscape,
                                const BlockPowerOptions& options) {
  const core::FmmpOperator op(model, landscape, core::Formulation::symmetric,
                              options.engine, options.plan);
  BlockPowerResult result = block_power_iteration(op, options);
  to_concentrations(result, landscape);
  return result;
}

BlockPowerResult resume_top_k_spectrum(const core::MutationModel& model,
                                       const core::Landscape& landscape,
                                       const io::SolverCheckpoint& checkpoint,
                                       const BlockPowerOptions& options) {
  const core::FmmpOperator op(model, landscape, core::Formulation::symmetric,
                              options.engine, options.plan);
  BlockPowerResult result = resume_block_power_iteration(op, checkpoint, options);
  to_concentrations(result, landscape);
  return result;
}

}  // namespace qs::solvers
