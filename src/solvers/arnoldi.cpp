#include "solvers/arnoldi.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <utility>

#include "core/fmmp.hpp"
#include "core/workspace.hpp"
#include "linalg/hessenberg_qr.hpp"
#include "linalg/small_power.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "support/contracts.hpp"

namespace qs::solvers {
namespace {

/// The restart loop, shared by cold starts and resumes.  `q0` is the
/// restart vector in the right (concentration) scale, 2-norm normalised,
/// used verbatim (resumes must not re-normalise or the resumed trajectory
/// would diverge from the original run in the last bits).
ArnoldiResult run_arnoldi_loop(const core::MutationModel& model,
                               const core::Landscape& landscape,
                               std::vector<double> q0, unsigned start_cycle,
                               IterationTrace trace, IterationDriver driver,
                               const ArnoldiOptions& options) {
  const std::size_t n = static_cast<std::size_t>(model.dimension());
  // Right formulation: eigenvector = concentrations directly; works for
  // any (possibly nonsymmetric) model.
  const core::FmmpOperator op(model, landscape, core::Formulation::right,
                              options.engine);

  ArnoldiResult out;
  out.eigenvalue = trace.eigenvalue;
  out.residual = trace.residual;
  out.iterations = start_cycle;
  out.matvec_count = static_cast<unsigned>(trace.matvec_count);

  const unsigned m = options.basis_size;
  core::Workspace local_workspace;
  core::Workspace& workspace =
      options.workspace != nullptr ? *options.workspace : local_workspace;
  std::span<double> w = workspace.take(core::Workspace::Slot::recurrence, n);

  // Basis pool reused across cycles: cleared counts, not freed buffers.
  std::vector<std::vector<double>> basis(m);
  linalg::DenseMatrix h(m + 1, m);  // Hessenberg projection
  // Ritz-vector buffer hoisted out of the cycle loop: assign() reuses the
  // capacity, so steady-state cycles add no allocations for it.
  std::vector<double> ritz(n, 0.0);

  for (unsigned cycle = start_cycle; cycle <= options.max_restarts; ++cycle) {
    QS_TRACE_SPAN_ARG("arnoldi.cycle", solver, cycle);
    out.restarts = cycle;
    out.iterations = cycle + 1;
    basis[0].assign(q0.begin(), q0.end());
    for (std::size_t r = 0; r <= m; ++r) {
      for (std::size_t c = 0; c < m; ++c) h(r, c) = 0.0;
    }

    unsigned built = 0;
    for (unsigned j = 0; j < m; ++j) {
      op.apply(basis[j], w);
      ++out.matvec_count;
      // Modified Gram-Schmidt with one reorthogonalisation pass (enough to
      // keep the basis orthonormal to working precision at these sizes);
      // the Hessenberg coefficient accumulates the projections of both
      // passes.
      for (int pass = 0; pass < 2; ++pass) {
        for (unsigned i = 0; i <= j; ++i) {
          const double proj = linalg::dot(basis[i], w);
          h(i, j) += proj;
          linalg::axpy(-proj, basis[i], w);
        }
      }
      built = j + 1;
      const double norm = linalg::norm2(w);
      h(j + 1, j) = norm;
      // Health guard at the per-step cadence: a poisoned product poisons the
      // Gram-Schmidt norms; fail fast before the Hessenberg eigensolver.
      if (!driver.guard({norm}, out)) break;
      if (norm <= 1e-14 || j + 1 == m) break;
      basis[j + 1].assign(w.begin(), w.end());
      linalg::scale(basis[j + 1], 1.0 / norm);
    }

    if (out.failure != SolverFailure::none) break;

    // Dominant Ritz pair of the square Hessenberg section.
    linalg::DenseMatrix h_square(built, built);
    for (unsigned r = 0; r < built; ++r) {
      for (unsigned c = 0; c < built; ++c) h_square(r, c) = h(r, c);
    }
    const auto ritz_values = linalg::eigenvalues(h_square);
    // Perron: the dominant eigenvalue of W is real positive; pick the Ritz
    // value of largest real part (its imaginary part must be negligible).
    std::complex<double> best = ritz_values.front();
    for (const auto& z : ritz_values) {
      if (z.real() > best.real()) best = z;
    }
    if (!driver.guard({best.real(), best.imag()}, out)) break;
    require(std::abs(best.imag()) <= 1e-6 * std::max(std::abs(best.real()), 1.0),
            "arnoldi_dominant_w: dominant Ritz value unexpectedly complex");
    out.eigenvalue = best.real();

    // Ritz vector: eigenvector of H for the dominant value via inverse
    // iteration, lifted through the basis.
    const auto h_pair = linalg::inverse_iteration(h_square, out.eigenvalue);
    ritz.assign(n, 0.0);
    for (unsigned j = 0; j < built; ++j) {
      linalg::axpy(h_pair.vector[j], basis[j], ritz);
    }
    linalg::normalize2(ritz);

    // Residual from the Arnoldi relation: ||W y - theta y|| =
    // |h(built, built-1) * s_last| for the normalised H-eigenvector s.
    double s_norm2 = 0.0;
    for (unsigned j = 0; j < built; ++j) s_norm2 += h_pair.vector[j] * h_pair.vector[j];
    const double s_last = h_pair.vector[built - 1] / std::sqrt(s_norm2);
    out.residual = std::abs(h(built, built - 1) * s_last) /
                   std::max(std::abs(out.eigenvalue), 1e-300);
    if (!driver.guard({out.residual}, out)) break;
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
    // after the health guard passed.
    driver.maybe_checkpoint(cycle + 1, out, q0, out.matvec_count);
  }

  if (out.failure != SolverFailure::none) {
    out.converged = false;
    out.concentrations.assign(q0.begin(), q0.end());
    return out;
  }

  // The reported residual is the true one of the final vector, from one
  // more product: once the Krylov space is (numerically) invariant the
  // Arnoldi relation's |h * s_last| falls far below what the vector
  // actually achieves.  The stopping rule above keeps the relation's value,
  // but a solve converged only if the true residual meets the tolerance
  // too: a tolerance below the rounding floor is not met.
  op.apply(q0, w);
  ++out.matvec_count;
  linalg::axpy(-out.eigenvalue, q0, w);
  out.residual = linalg::norm2(w) /
                 std::max(std::abs(out.eigenvalue) * linalg::norm2(q0), 1e-300);
  if (out.residual > options.tolerance) out.converged = false;

  out.concentrations.assign(q0.begin(), q0.end());
  double s = 0.0;
  for (double v : out.concentrations) s += v;
  if (s < 0.0) linalg::scale(out.concentrations, -1.0);
  linalg::normalize1(out.concentrations);
  return out;
}

}  // namespace

ArnoldiResult arnoldi_dominant_w(const core::MutationModel& model,
                                 const core::Landscape& landscape,
                                 std::span<const double> start,
                                 const ArnoldiOptions& options) {
  require(options.basis_size >= 2, "arnoldi_dominant_w: basis_size must be >= 2");
  const std::size_t n = static_cast<std::size_t>(model.dimension());
  require(start.empty() || start.size() == n,
          "arnoldi_dominant_w: starting vector has wrong dimension");

  IterationDriver driver(options, io::SolverKind::arnoldi, n);
  std::vector<double> q0(n);
  {
    const auto f = landscape.values();
    double q0_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      q0[i] = start.empty() ? f[i] : start[i];
      q0_sq += q0[i] * q0[i];
    }
    // Poisoned start: fail structurally rather than tripping the
    // normalisation's zero-vector precondition on NaN.
    ArnoldiResult bad;
    if (!driver.guard({q0_sq}, bad)) return bad;
    linalg::normalize2(q0);
  }
  return run_arnoldi_loop(model, landscape, std::move(q0), 0, IterationTrace{},
                          std::move(driver), options);
}

ArnoldiResult resume_arnoldi_dominant_w(const core::MutationModel& model,
                                        const core::Landscape& landscape,
                                        const io::SolverCheckpoint& checkpoint,
                                        const ArnoldiOptions& options) {
  require(options.basis_size >= 2,
          "resume_arnoldi_dominant_w: basis_size must be >= 2");
  const std::size_t n = static_cast<std::size_t>(model.dimension());
  require(checkpoint.eigenvector.size() == n,
          "resume_arnoldi_dominant_w: checkpoint dimension does not match model");

  IterationDriver driver(options, io::SolverKind::arnoldi, n);
  IterationTrace trace;
  ArnoldiResult out;
  if (!restore_trace(checkpoint, io::SolverKind::arnoldi, trace, out)) {
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
  return run_arnoldi_loop(model, landscape, std::move(q0), start_cycle,
                          std::move(trace), std::move(driver), options);
}

}  // namespace qs::solvers
