#include "reference/shift_invert.hpp"

#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "core/fmmp.hpp"
#include "core/operators.hpp"
#include "core/spectral.hpp"
#include "linalg/tree_reduce.hpp"
#include "linalg/vector_ops.hpp"
#include "parallel/row_blocks.hpp"
#include "support/contracts.hpp"
#include "transforms/fwht.hpp"

namespace qs::core {

void apply_q_shift_invert(const MutationModel& model, double mu, std::span<double> v) {
  require(model.kind() != MutationKind::grouped && model.symmetric(),
          "spectral operation requires a symmetric 2x2-factor mutation model");
  require(v.size() == model.dimension(), "apply_q_shift_invert: dimension mismatch");
  transforms::fwht(v);
  const double inv_n = 1.0 / static_cast<double>(v.size());
  for (seq_t w = 0; w < v.size(); ++w) {
    const double denom = model.walsh_eigenvalue(w) - mu;
    require(std::abs(denom) >= 1e-300,
            "apply_q_shift_invert: shift mu coincides with an eigenvalue of Q");
    v[w] *= inv_n / denom;
  }
  transforms::fwht(v);
}

}  // namespace qs::core

namespace qs::solvers {
namespace {

/// Bundles the symmetric operator, the shift machinery, and the scratch
/// vectors the outer iterations share.
class SymmetricWContext {
 public:
  SymmetricWContext(const core::MutationModel& model, const core::Landscape& landscape,
                    const parallel::Engine* engine = nullptr)
      : model_(model),
        landscape_(landscape),
        engine_(parallel::engine_or_serial(engine)),
        op_(model, landscape, core::Formulation::symmetric, engine),
        n_(static_cast<std::size_t>(model.dimension())),
        sqrt_f_(n_) {
    require(model.symmetric() && model.kind() != core::MutationKind::grouped,
            "shift-invert solvers require a symmetric 2x2-factor mutation model");
    const auto f = landscape.values();
    for (std::size_t i = 0; i < n_; ++i) sqrt_f_[i] = std::sqrt(f[i]);
  }

  std::size_t dimension() const { return n_; }

  /// Products with W_S so far (every apply below counts one).
  std::size_t products() const { return products_; }

  /// y = W_S x.
  void apply(std::span<const double> x, std::span<double> y) const {
    op_.apply(x, y);
    ++products_;
  }

  /// Shifted symmetric apply: y = (W_S - mu I) x.
  linalg::ApplyFn shifted_apply(double mu) const {
    return [this, mu](std::span<const double> x, std::span<double> y) {
      apply(x, y);
      const double* xp = x.data();
      double* yp = y.data();
      engine_.dispatch(n_, [xp, yp, mu](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) yp[i] -= mu * xp[i];
      });
    };
  }

  /// Exact mutation-part preconditioner M^{-1} = F^{-1/2} Q^{-1} F^{-1/2}
  /// (SPD; Q^{-1} via the FWHT diagonalisation).
  linalg::ApplyFn q_preconditioner() const {
    return [this](std::span<const double> x, std::span<double> y) {
      for (std::size_t i = 0; i < n_; ++i) y[i] = x[i] / sqrt_f_[i];
      core::apply_q_shift_invert(model_, 0.0, y);
      for (std::size_t i = 0; i < n_; ++i) y[i] /= sqrt_f_[i];
    };
  }

  /// True iff (W_S - mu I) is provably positive definite.
  bool shift_below_spectrum(double mu) const {
    return mu < core::conservative_shift(model_, landscape_);
  }

  /// Rayleigh quotient and relative residual of the normalised x.  Both
  /// sums are tree-ordered (parallel::RowBlocks over tree_reduce leaves),
  /// so every engine gives the serial bits.
  std::pair<double, double> eigen_residual(std::span<const double> x,
                                           std::span<double> scratch) const {
    apply(x, scratch);
    const double* xp = x.data();
    const double* sp = scratch.data();
    parallel::RowBlocks blocks(engine_, n_, 1, 1);
    double rq = 0.0;
    blocks.sums(1, [xp, sp](std::size_t begin, std::size_t end, double* partial) {
      partial[0] = linalg::tree_reduce(begin, end,
                                       [xp, sp](std::size_t i) { return xp[i] * sp[i]; });
    }, &rq);
    double res2 = 0.0;
    blocks.sums(1, [xp, sp, rq](std::size_t begin, std::size_t end, double* partial) {
      partial[0] = linalg::tree_reduce(begin, end, [xp, sp, rq](std::size_t i) {
        const double r = sp[i] - rq * xp[i];
        return r * r;
      });
    }, &res2);
    return {rq, std::sqrt(res2) / std::max(std::abs(rq), 1e-300)};
  }

  /// Converts a symmetric-form eigenvector into concentrations in place.
  void to_concentrations(std::vector<double>& x) const {
    for (std::size_t i = 0; i < n_; ++i) x[i] /= sqrt_f_[i];
    double s = 0.0;
    for (double v : x) s += v;
    if (s < 0.0) linalg::scale(x, -1.0);
    linalg::normalize1(x);
  }

  /// Starting vector in the symmetric scale from a concentration-scale
  /// start (or the landscape default), 2-norm normalised.
  std::vector<double> symmetric_start(std::span<const double> start) const {
    std::vector<double> x(n_);
    if (start.empty()) {
      const auto f = landscape_.values();
      for (std::size_t i = 0; i < n_; ++i) x[i] = f[i] * sqrt_f_[i];  // F^{1/2} f
    } else {
      require(start.size() == n_, "shift-invert: starting vector has wrong dimension");
      for (std::size_t i = 0; i < n_; ++i) x[i] = start[i] * sqrt_f_[i];
    }
    linalg::normalize2(x);
    return x;
  }

 private:
  const core::MutationModel& model_;
  const core::Landscape& landscape_;
  const parallel::Engine& engine_;
  core::FmmpOperator op_;
  std::size_t n_;
  std::vector<double> sqrt_f_;
  mutable std::size_t products_ = 0;
};

/// True when both values are finite; otherwise stamps the structured
/// failure into `out`.
bool finite_or_fail(double eigenvalue, double residual, WEigenResult& out) {
  if (std::isfinite(eigenvalue) && std::isfinite(residual)) return true;
  out.failure = SolverFailure::non_finite;
  out.converged = false;
  return false;
}

/// Refusing a poisoned caller-supplied start vector up front keeps the
/// failure structured: letting it through would trip the normalisation's
/// zero-vector precondition on NaN instead of reporting non_finite.
bool poisoned_start(std::span<const double> start, WEigenResult& out) {
  for (double v : start) {
    if (!std::isfinite(v)) {
      out.failure = SolverFailure::non_finite;
      return true;
    }
  }
  return false;
}

/// The shared outer loop: inverse iteration around `mu`, optionally
/// switching to Rayleigh-quotient shift updates once the residual drops
/// below `rayleigh_after_residual` (set it to +inf for immediate updates,
/// 0 to keep the shift fixed).  `x` is the starting iterate in the
/// symmetric scale, 2-norm normalised.
WEigenResult run_shifted_outer(const SymmetricWContext& ctx, std::vector<double> x,
                               const ShiftInvertOptions& options, double mu,
                               double rayleigh_after_residual) {
  WEigenResult out;
  std::vector<double> rhs(ctx.dimension());
  std::vector<double> scratch(ctx.dimension());
  // One set of Krylov work vectors serves every inner solve of the run.
  std::vector<double> krylov_work;
  linalg::KrylovOptions inner_options = options.inner;
  if (inner_options.work == nullptr) inner_options.work = &krylov_work;

  std::tie(out.eigenvalue, out.residual) = ctx.eigen_residual(x, scratch);

  // The eigen-residual is recomputed after every outer step, so a NaN/Inf
  // iterate (e.g. a poisoned product inside the inner Krylov solve) is
  // caught at that cadence and reported structurally instead of letting the
  // outer loop spin on garbage.
  if (finite_or_fail(out.eigenvalue, out.residual, out)) {
    for (unsigned it = 1; it <= options.max_outer_iterations; ++it) {
      out.outer_iterations = it;
      if (out.residual <= options.tolerance) break;
      // Solve (W_S - mu I) y = x; y (in x) is the next iterate.
      linalg::copy(x, rhs);
      linalg::KrylovResult inner;
      if (ctx.shift_below_spectrum(mu)) {
        inner = linalg::conjugate_gradient(
            ctx.shifted_apply(mu), rhs, x, inner_options,
            options.use_q_preconditioner ? ctx.q_preconditioner() : linalg::ApplyFn{});
      } else {
        inner = linalg::minres(ctx.shifted_apply(mu), rhs, x, inner_options);
      }
      out.inner_iterations_total += inner.iterations;
      linalg::normalize2(x);
      std::tie(out.eigenvalue, out.residual) = ctx.eigen_residual(x, scratch);
      if (!finite_or_fail(out.eigenvalue, out.residual, out)) break;
      if (out.residual < rayleigh_after_residual) mu = out.eigenvalue;
    }
    out.converged =
        out.failure == SolverFailure::none && out.residual <= options.tolerance;
  }
  out.products = ctx.products();

  // A garbage iterate is reported raw: the concentration conversion would
  // only launder NaNs through a normalisation.
  if (out.failure == SolverFailure::none) ctx.to_concentrations(x);
  out.concentrations = std::move(x);
  return out;
}

}  // namespace

linalg::KrylovResult solve_shifted_symmetric_w(const core::MutationModel& model,
                                               const core::Landscape& landscape,
                                               double mu, std::span<const double> b,
                                               std::span<double> x,
                                               const linalg::KrylovOptions& options,
                                               bool use_q_preconditioner) {
  const SymmetricWContext ctx(model, landscape);
  require(b.size() == ctx.dimension() && x.size() == ctx.dimension(),
          "solve_shifted_symmetric_w: dimension mismatch");
  if (ctx.shift_below_spectrum(mu)) {
    return linalg::conjugate_gradient(
        ctx.shifted_apply(mu), b, x, options,
        use_q_preconditioner ? ctx.q_preconditioner() : linalg::ApplyFn{});
  }
  return linalg::minres(ctx.shifted_apply(mu), b, x, options);
}

WEigenResult inverse_iteration_w(const core::MutationModel& model,
                                 const core::Landscape& landscape, double mu,
                                 std::span<const double> start,
                                 const ShiftInvertOptions& options) {
  WEigenResult bad;
  if (poisoned_start(start, bad)) return bad;
  const SymmetricWContext ctx(model, landscape, options.engine);
  return run_shifted_outer(ctx, ctx.symmetric_start(start), options, mu,
                           /*rayleigh_after_residual=*/0.0);
}

WEigenResult rayleigh_quotient_iteration_w(const core::MutationModel& model,
                                           const core::Landscape& landscape,
                                           std::span<const double> start,
                                           const ShiftInvertOptions& options) {
  WEigenResult bad;
  if (poisoned_start(start, bad)) return bad;
  const SymmetricWContext ctx(model, landscape, options.engine);
  // A generic start has an *interior* Rayleigh quotient, and pure RQI
  // converges to whatever eigenvalue is nearest — not necessarily the
  // dominant one.  A short power-iteration warm-up (cheap Fmmp products)
  // pulls the iterate towards the dominant eigenvector first; near the
  // error threshold twenty products are not enough (see the header).
  std::vector<double> x = ctx.symmetric_start(start);
  std::vector<double> y(ctx.dimension());
  for (unsigned warm = 0; warm < 20; ++warm) {
    ctx.apply(x, y);
    linalg::copy(y, x);
    linalg::normalize2(x);
  }
  const double rq0 = ctx.eigen_residual(x, y).first;
  return run_shifted_outer(ctx, std::move(x), options, rq0,
                           /*rayleigh_after_residual=*/
                           std::numeric_limits<double>::infinity());
}

WEigenResult smallest_eigenpair_w(const core::MutationModel& model,
                                  const core::Landscape& landscape,
                                  const ShiftInvertOptions& options) {
  const SymmetricWContext ctx(model, landscape, options.engine);
  // Shift just below the paper's lower bound (1-2p)^nu f_min <= lambda_min:
  // the nearest eigenvalue to mu is then *guaranteed* to be lambda_min, the
  // system stays positive definite (CG path), and once the iterate has
  // locked on (residual < 1e-4) Rayleigh updates finish the job cubically.
  const double mu = 0.999 * core::conservative_shift(model, landscape);
  std::vector<double> uniform(ctx.dimension(), 1.0);
  linalg::normalize2(uniform);
  return run_shifted_outer(ctx, std::move(uniform), options, mu,
                           /*rayleigh_after_residual=*/1e-4);
}

}  // namespace qs::solvers
