#include "solvers/lanczos.hpp"

#include <cmath>
#include <utility>

#include "core/fmmp.hpp"
#include "core/workspace.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "support/contracts.hpp"

namespace qs::solvers {
namespace {

/// The restart loop, shared by cold starts and resumes.  `q0` is the
/// restart vector in the symmetric scale, used verbatim (cold starts
/// normalise before calling; resumes must not re-normalise or the resumed
/// trajectory would diverge from the original run in the last bits).
LanczosResult run_lanczos_loop(const core::MutationModel& model,
                               const core::Landscape& landscape,
                               std::vector<double> q0, unsigned start_cycle,
                               IterationTrace trace, IterationDriver driver,
                               const LanczosOptions& options) {
  const std::size_t n = static_cast<std::size_t>(model.dimension());
  const core::FmmpOperator op(model, landscape, core::Formulation::symmetric,
                              options.engine);
  const auto f = landscape.values();

  LanczosResult out;
  out.eigenvalue = trace.eigenvalue;
  out.residual = trace.residual;
  out.iterations = start_cycle;
  out.matvec_count = static_cast<unsigned>(trace.matvec_count);

  const unsigned m = options.basis_size;
  core::Workspace local_workspace;
  core::Workspace& workspace =
      options.workspace != nullptr ? *options.workspace : local_workspace;
  std::span<double> w = workspace.take(core::Workspace::Slot::recurrence, n);

  // The basis pool is reused across cycles (and across solves through a
  // shared workspace-less pool local to this call): cleared counts, not
  // freed buffers.
  std::vector<std::vector<double>> basis(m);
  std::vector<double> alpha(m), beta(m);  // T diagonal / subdiagonal
  // Ritz-vector buffer hoisted out of the cycle loop: assign() reuses the
  // capacity, so steady-state cycles add no allocations for it (the
  // alloc-guard test pins this down).
  std::vector<double> ritz(n, 0.0);

  for (unsigned cycle = start_cycle; cycle <= options.max_restarts; ++cycle) {
    QS_TRACE_SPAN_ARG("lanczos.cycle", solver, cycle);
    out.restarts = cycle;
    out.iterations = cycle + 1;
    basis[0].assign(q0.begin(), q0.end());

    unsigned built = 0;  // number of completed Lanczos steps this cycle
    for (unsigned j = 0; j < m; ++j) {
      op.apply(basis[j], w);
      ++out.matvec_count;
      alpha[j] = linalg::dot(basis[j], w);
      // Three-term recurrence ...
      linalg::axpy(-alpha[j], basis[j], w);
      if (j > 0) linalg::axpy(-beta[j - 1], basis[j - 1], w);
      // ... plus full reorthogonalisation: at these basis sizes the cost is
      // negligible next to the mat-vec and it removes ghost eigenvalues.
      for (unsigned i = 0; i <= j; ++i) {
        linalg::axpy(-linalg::dot(basis[i], w), basis[i], w);
      }
      built = j + 1;
      const double norm = linalg::norm2(w);
      beta[j] = norm;
      // Health guard at the per-step cadence: a poisoned product makes the
      // recurrence norm NaN/Inf; fail fast instead of feeding garbage to
      // the tridiagonal eigensolver cycle after cycle.
      if (!driver.guard({norm, alpha[j]}, out)) break;
      if (norm <= 1e-14 || j + 1 == m) break;  // invariant subspace or full
      basis[j + 1].assign(w.begin(), w.end());
      linalg::scale(basis[j + 1], 1.0 / norm);
    }

    if (out.failure != SolverFailure::none) break;

    // Dominant Ritz pair of the tridiagonal section T(0..built-1).
    linalg::DenseMatrix t(built, built);
    for (unsigned j = 0; j < built; ++j) {
      t(j, j) = alpha[j];
      if (j + 1 < built) {
        t(j, j + 1) = beta[j];
        t(j + 1, j) = beta[j];
      }
    }
    const auto eigen = linalg::jacobi_eigen(t);
    out.eigenvalue = eigen.values[0];

    // Ritz vector y = V s, and the classic residual bound |beta_m * s_last|.
    ritz.assign(n, 0.0);
    for (unsigned j = 0; j < built; ++j) {
      linalg::axpy(eigen.vectors(j, 0), basis[j], ritz);
    }
    linalg::normalize2(ritz);
    out.residual = std::abs(beta[built - 1] * eigen.vectors(built - 1, 0)) /
                   std::max(std::abs(out.eigenvalue), 1e-300);
    if (!driver.guard({out.eigenvalue, out.residual}, out)) break;
    q0.assign(ritz.begin(), ritz.end());
    const IterationDriver::Verdict verdict =
        driver.observe(cycle + 1, out.residual, out);
    if (verdict != IterationDriver::Verdict::proceed) {
      // Cancellation flushes the restart vector (the same state the periodic
      // checkpoint persists) so an interrupted run resumes at this cycle.
      if (verdict == IterationDriver::Verdict::cancelled &&
          driver.checkpointing()) {
        driver.write_checkpoint(cycle + 1, out, q0, out.matvec_count);
      }
      break;
    }
    // Periodic checkpoint of the next cycle's restart vector, written only
    // after the health guard passed: the last checkpoint on disk is always
    // a finite, resumable state.
    driver.maybe_checkpoint(cycle + 1, out, q0, out.matvec_count);
  }

  if (out.failure != SolverFailure::none) {
    // Garbage basis: report the raw iterate without the concentration
    // conversion (normalising NaNs would only disguise the failure).
    out.converged = false;
    out.concentrations.assign(q0.begin(), q0.end());
    return out;
  }

  // Convert the symmetric-form Ritz vector to concentrations.
  out.concentrations.assign(q0.begin(), q0.end());
  for (std::size_t i = 0; i < n; ++i) out.concentrations[i] /= std::sqrt(f[i]);
  double s = 0.0;
  for (double v : out.concentrations) s += v;
  if (s < 0.0) linalg::scale(out.concentrations, -1.0);
  linalg::normalize1(out.concentrations);
  return out;
}

void validate(const core::MutationModel& model, const LanczosOptions& options) {
  require(model.symmetric() && model.kind() != core::MutationKind::grouped,
          "lanczos_dominant_w requires a symmetric 2x2-factor mutation model");
  require(options.basis_size >= 2, "lanczos_dominant_w: basis_size must be >= 2");
}

}  // namespace

LanczosResult lanczos_dominant_w(const core::MutationModel& model,
                                 const core::Landscape& landscape,
                                 std::span<const double> start,
                                 const LanczosOptions& options) {
  validate(model, options);
  const std::size_t n = static_cast<std::size_t>(model.dimension());
  require(start.empty() || start.size() == n,
          "lanczos_dominant_w: starting vector has wrong dimension");

  IterationDriver driver(options, io::SolverKind::lanczos, n);
  const auto f = landscape.values();

  // Start vector in symmetric scale: F^{1/2} * (given or landscape start).
  std::vector<double> q0(n);
  double q0_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double base = start.empty() ? f[i] : start[i];
    q0[i] = base * std::sqrt(f[i]);
    q0_sq += q0[i] * q0[i];
  }
  // Refuse to iterate on a poisoned start (NaN/Inf entries, or a norm that
  // overflowed): report the structured failure instead of tripping the
  // normalisation's zero-vector precondition on NaN.
  LanczosResult bad;
  if (!driver.guard({q0_sq}, bad)) return bad;
  linalg::normalize2(q0);
  return run_lanczos_loop(model, landscape, std::move(q0), 0, IterationTrace{},
                          std::move(driver), options);
}

LanczosResult resume_lanczos_dominant_w(const core::MutationModel& model,
                                        const core::Landscape& landscape,
                                        const io::SolverCheckpoint& checkpoint,
                                        const LanczosOptions& options) {
  validate(model, options);
  const std::size_t n = static_cast<std::size_t>(model.dimension());
  require(checkpoint.eigenvector.size() == n,
          "resume_lanczos_dominant_w: checkpoint dimension does not match model");

  IterationDriver driver(options, io::SolverKind::lanczos, n);
  IterationTrace trace;
  LanczosResult out;
  if (!restore_trace(checkpoint, io::SolverKind::lanczos, trace, out)) {
    out.concentrations = std::move(trace.iterate);
    out.eigenvalue = trace.eigenvalue;
    out.residual = trace.residual;
    out.iterations = trace.start_iteration;
    out.matvec_count = static_cast<unsigned>(trace.matvec_count);
    return out;
  }
  driver.restore(checkpoint);
  std::vector<double> q0 = std::move(trace.iterate);
  const unsigned start_cycle = trace.start_iteration;
  return run_lanczos_loop(model, landscape, std::move(q0), start_cycle,
                          std::move(trace), std::move(driver), options);
}

}  // namespace qs::solvers
