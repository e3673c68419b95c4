#include "solvers/power_iteration.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "core/workspace.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "support/contracts.hpp"
#include "transforms/sv_microkernel.hpp"

namespace qs::solvers {
namespace {

/// The table every reduction without an engine runs on.  All tiers return
/// the same bits (the tree order of linalg::tree_reduce); the widest is
/// just the fastest.
const transforms::SvKernels& reduction_kernels() {
  return transforms::sv_kernels_or_scalar(transforms::best_sv_kernels());
}

/// x <- x / ||x||_1 with the tree-ordered 1-norm: multiply by the
/// reciprocal, exactly as the distributed ranks normalise their blocks.
void normalize1_tree(std::span<double> x, const char* what) {
  const double norm = reduction_kernels().tree_abs_sum(x.data(), x.size());
  require(norm > 0.0, what);
  linalg::scale(x, 1.0 / norm);
}

/// The core loop, shared by cold starts and resumes.  The iterate in
/// `trace.iterate` is used verbatim (callers normalise cold starts; resumes
/// must not re-normalise or the trajectory would diverge from the original
/// run in the last bits); `driver` carries the (possibly restored)
/// stall-window accounting.
///
/// With no engine (the facade's default) one step is the mat-vec plus three
/// passes over the vectors, each sum in tree order:
///   A  {x.x, x.y}                       (residual checks only)
///   B  residual, y <- y - mu x, ||y||_1 (residual skipped off-cadence)
///   C  x <- y / ||y||_1
/// With an engine (parallel backends, tree_engine(), fault injection) every
/// reduction and element-wise pass goes through the engine instead.
PowerResult run_power_loop(const core::LinearOperator& op, IterationTrace trace,
                           IterationDriver driver, const PowerOptions& options) {
  const std::size_t n = static_cast<std::size_t>(op.dimension());
  const parallel::Engine* engine = options.engine;
  const transforms::SvKernels& sv = reduction_kernels();

  PowerResult out;
  out.eigenvector = std::move(trace.iterate);
  out.eigenvalue = trace.eigenvalue;
  out.residual = trace.residual;
  out.iterations = trace.start_iteration;

  // The product buffer comes from the shared workspace when one is
  // configured, so repeated solves (sweeps, recovery retries) reuse it.
  core::Workspace local_workspace;
  core::Workspace& workspace =
      options.workspace != nullptr ? *options.workspace : local_workspace;
  std::span<double> y = workspace.take(core::Workspace::Slot::product, n);

  std::span<double> x(out.eigenvector);
  double* yp = y.data();
  double* xp = x.data();
  const double mu = options.shift;

  for (unsigned it = trace.start_iteration + 1; it <= options.max_iterations; ++it) {
    QS_TRACE_SPAN_ARG("power.iteration", solver, it);
    op.apply(x, y);  // y = W x (unshifted product)
    out.iterations = it;

    // Without an engine, pass B shifts y and yields its 1-norm in the same
    // sweep as the residual.  Its write to y is harmless on every early
    // exit below: y is scratch, and x — what a cancelled solve flushes —
    // is untouched until pass C.
    double norm = 0.0;
    if (driver.should_check(it, options.max_iterations)) {
      // Rayleigh quotient from the product already in hand.
      double xx = 0.0;
      double xy = 0.0;
      if (engine == nullptr) {
        const transforms::TreeSums a = sv.tree_dot2(xp, yp, n);
        xx = a.first;
        xy = a.second;
      } else {
        xx = engine->reduce_dot(x, x);
        xy = engine->reduce_dot(x, y);
      }
      const double lambda = xy / xx;
      // Residual ||y - lambda x||_2 formed explicitly.  (The algebraically
      // equivalent sqrt(yy - xy^2/xx) cancels catastrophically: its noise
      // floor is sqrt(eps) ~ 1e-8 in eigenvector error, far above the
      // tolerances this solver targets.)
      double res2 = 0.0;
      if (engine == nullptr) {
        const transforms::TreeSums b =
            sv.tree_residual_shift_norm1(xp, yp, n, lambda, mu, true);
        res2 = b.first;
        norm = b.second;
      } else {
        res2 = engine->reduce_partials(
            n, [yp, xp, lambda](std::size_t begin, std::size_t end) {
              double acc = 0.0;
              for (std::size_t i = begin; i < end; ++i) {
                const double r = yp[i] - lambda * xp[i];
                acc += r * r;
              }
              return acc;
            });
      }
      // Numerical-health guard: a NaN/Inf iterate makes both the Rayleigh
      // quotient and the residual non-finite.  Fail fast with a structured
      // reason instead of spinning max_iterations on garbage.
      if (!driver.guard({lambda, res2}, out)) break;
      out.eigenvalue = lambda;
      out.residual =
          std::sqrt(res2) / std::max(std::abs(lambda) * std::sqrt(xx), 1e-300);
      const IterationDriver::Verdict verdict =
          driver.observe(it, out.residual, out);
      if (verdict != IterationDriver::Verdict::proceed) {
        // A cancelled solve (deadline, disconnect, SIGTERM) flushes its
        // finite pre-update iterate — the result of iteration it-1 — so a
        // restart resumes exactly this aborted iteration.
        if (verdict == IterationDriver::Verdict::cancelled &&
            driver.checkpointing()) {
          driver.write_checkpoint(it - 1, out, out.eigenvector, it - 1);
        }
        break;
      }
    } else if (engine == nullptr) {
      norm = sv.tree_residual_shift_norm1(xp, yp, n, 0.0, mu, false).second;
    }

    if (engine != nullptr) {
      // Shifted update x <- (W - mu I) x through the engine, so a parallel
      // backend covers the whole iteration, not just the reductions.
      if (mu != 0.0) {
        engine->dispatch(n, [yp, xp, mu](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) yp[i] -= mu * xp[i];
        });
      }
      norm = engine->reduce_abs_sum(y);
    }
    // The 1-norm is computed every iteration anyway, so checking it for
    // NaN/Inf costs one compare and catches a poisoned product at the
    // earliest possible iteration — before it can reach a checkpoint.
    if (!driver.guard({norm}, out)) break;
    require(norm > 0.0, "power_iteration: iterate collapsed to zero");
    const double inv = 1.0 / norm;
    auto rescale = [yp, xp, inv](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) xp[i] = yp[i] * inv;
    };
    if (engine != nullptr) {
      engine->dispatch(n, rescale);
    } else {
      rescale(0, n);
    }

    // Periodic checkpoint, written only after the health guard above passed:
    // the last checkpoint on disk is always a finite, resumable state.
    driver.maybe_checkpoint(it, out, out.eigenvector, it);
  }

  // A non-finite exit leaves the garbage iterate in place for post-mortem
  // inspection but skips the orientation fix (flipping NaNs is meaningless).
  if (out.failure != SolverFailure::none) return out;

  // Perron orientation: the dominant eigenvector is nonnegative; flip if the
  // iteration settled on the negative representative.  The final 1-norm is
  // the tree-ordered one on every path, as on a distributed solve's ranks.
  const double s = engine != nullptr ? engine->reduce_sum(x)
                                     : sv.tree_sum(xp, n);
  if (s < 0.0) linalg::scale(x, -1.0);
  normalize1_tree(x, "power_iteration: zero eigenvector");
  return out;
}

/// True when `v` is already 1-norm normalised up to the rounding one
/// normalisation leaves behind.  Scaling by a rounded reciprocal rounds
/// each element once more, and the tree 1-norm of depth log2(n) rounds
/// each partial, so the tree norm of a normalised vector lies within
/// (log2(n) + 1) machine epsilons of 1; the bound below adds slack.
bool normalised_to_rounding(std::span<const double> v) {
  const double norm = reduction_kernels().tree_abs_sum(v.data(), v.size());
  const double depth = static_cast<double>(std::bit_width(v.size()));
  return std::abs(norm - 1.0) <=
         (depth + 2.0) * std::numeric_limits<double>::epsilon();
}

}  // namespace

std::vector<double> landscape_start(const core::Landscape& landscape) {
  std::vector<double> s(landscape.values().begin(), landscape.values().end());
  normalize1_tree(s, "landscape_start: landscape has zero 1-norm");
  return s;
}

PowerResult power_iteration(const core::LinearOperator& op,
                            std::span<const double> start,
                            const PowerOptions& options) {
  return detail::power_iteration_owned(
      op, std::vector<double>(start.begin(), start.end()), options);
}

namespace detail {

PowerResult power_iteration_owned(const core::LinearOperator& op,
                                  std::vector<double> start,
                                  const PowerOptions& options) {
  const std::size_t n = static_cast<std::size_t>(op.dimension());
  require(n > 0, "power_iteration: empty operator");
  require(start.empty() || start.size() == n,
          "power_iteration: starting vector has wrong dimension");

  IterationTrace trace;
  if (start.empty()) {
    trace.iterate.assign(n, 1.0 / static_cast<double>(n));
  } else {
    // A start that is already normalised (landscape_start, a previous
    // eigenvector) is taken verbatim, so a solve from landscape_start
    // begins at exactly the iterate a distributed solve begins at.
    trace.iterate = std::move(start);
    if (!normalised_to_rounding(trace.iterate)) {
      normalize1_tree(trace.iterate, "power_iteration: zero starting vector");
    }
  }
  return run_power_loop(op, std::move(trace),
                        IterationDriver(options, io::SolverKind::power), options);
}

}  // namespace detail

PowerResult resume_power_iteration(const core::LinearOperator& op,
                                   const io::SolverCheckpoint& checkpoint,
                                   const PowerOptions& options) {
  const std::size_t n = static_cast<std::size_t>(op.dimension());
  require(n > 0, "resume_power_iteration: empty operator");
  require(checkpoint.eigenvector.size() == n,
          "resume_power_iteration: checkpoint dimension does not match operator");

  IterationDriver driver(options, io::SolverKind::power);
  IterationTrace trace;
  PowerResult out;
  if (!restore_trace(checkpoint, io::SolverKind::power, trace, out)) {
    out.eigenvector = std::move(trace.iterate);
    out.eigenvalue = trace.eigenvalue;
    out.residual = trace.residual;
    out.iterations = trace.start_iteration;
    return out;
  }
  driver.restore(checkpoint);
  return run_power_loop(op, std::move(trace), std::move(driver), options);
}

}  // namespace qs::solvers
