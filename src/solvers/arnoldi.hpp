// Restarted Arnoldi iteration for the dominant eigenpair of W with
// *nonsymmetric* mutation models.
//
// Section 2.2 generalises the mutation process to asymmetric per-site rates
// (0->1 != 1->0), which breaks the symmetry that block power, the
// shift-invert oracles and the symmetric formulation rely on, leaving only
// the plain power iteration.  Arnoldi (named alongside Lanczos in Section 3)
// fills that gap: a short orthonormal Krylov basis, the Hessenberg
// projection's dominant Ritz pair (real and positive by Perron-Frobenius),
// restart on the Ritz vector.  On the eigensolver grid
// (BENCH_eigensolvers.json) it is the fastest kind on the asymmetric row
// near the error threshold, where the power iteration needs ~1500 products.
//
// Resilience: the restart loop runs through solvers/iteration_driver — one
// driver iteration per restart cycle — so the solver supports periodic
// checkpoint/resume (bit-identical resumed trajectories on the serial
// backend), stall windows, and the NaN/Inf health guards with structured
// SolverFailure reporting.
#pragma once

#include <span>
#include <vector>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "solvers/iteration_driver.hpp"

namespace qs::solvers {

/// Options for the restarted Arnoldi solver: the shared iteration block
/// (one driver iteration = one restart cycle; stall window disabled by
/// default, `max_iterations`/`residual_check_every` ignored — the cycle cap
/// is `max_restarts` and every cycle extracts a Ritz pair) plus the Krylov
/// knobs.
struct ArnoldiOptions : IterationOptions {
  ArnoldiOptions() {
    tolerance = 1e-12;
    stall_window = 0;
  }

  unsigned basis_size = 20;   ///< Krylov basis per cycle.
  unsigned max_restarts = 200;
};

/// Result of an Arnoldi solve: the shared outcome fields (`iterations`
/// counts completed restart cycles) plus the Arnoldi-specific statistics.
/// Cycles stop on the Arnoldi relation's residual |h * s_last| / |theta|;
/// a solve that ends without a failure then reports the true relative
/// residual ||W x - lambda x||_2 / (|lambda| ||x||_2) of its final vector,
/// from one more product (counted in `matvec_count`), and is `converged`
/// only if that residual meets the tolerance as well.
struct ArnoldiResult : IterationResult {
  std::vector<double> concentrations;  ///< x_R, 1-norm normalised.
  unsigned matvec_count = 0;
  unsigned restarts = 0;
};

/// Computes the dominant eigenpair of W = Q F (right formulation) for any
/// 2x2-factor or grouped mutation model, symmetric or not.  `start` is in
/// concentration scale; empty selects the landscape start.
ArnoldiResult arnoldi_dominant_w(const core::MutationModel& model,
                                 const core::Landscape& landscape,
                                 std::span<const double> start = {},
                                 const ArnoldiOptions& options = {});

/// Resumes an Arnoldi solve from a checkpoint written by a previous run
/// with the same model, landscape, and options.  The checkpointed restart
/// vector (right/concentration scale, 2-norm normalised) is taken verbatim,
/// so on the serial backend the per-cycle residual trajectory from the
/// checkpoint cycle onward is bit-identical to the uninterrupted run.
/// Refuses checkpoints written by a different solver kind.
ArnoldiResult resume_arnoldi_dominant_w(const core::MutationModel& model,
                                        const core::Landscape& landscape,
                                        const io::SolverCheckpoint& checkpoint,
                                        const ArnoldiOptions& options = {});

}  // namespace qs::solvers
