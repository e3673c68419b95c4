// Error-rate sweeps: the data behind Figure 1 of the paper.
//
// For a fixed fitness landscape, the quasispecies problem is solved for a
// grid of error rates p and the cumulative class concentrations [Gamma_k]
// are collected; plotting them against p visualises the error threshold
// phenomenon.  Error-class landscapes ride on the exact (nu+1) x (nu+1)
// reduction (Section 5.1), so a full nu = 20 sweep costs milliseconds;
// general landscapes run the Fmmp power iteration with warm starts (each
// solution seeds the next grid point).
#pragma once

#include <functional>
#include <ostream>
#include <span>
#include <vector>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/workspace.hpp"
#include "parallel/engine.hpp"
#include "transforms/blocked_butterfly.hpp"

namespace qs::analysis {

/// One sweep: rows are grid points, columns are error classes.
struct SweepResult {
  std::vector<double> error_rates;  ///< The p grid actually used.
  std::vector<std::vector<double>> class_concentrations;  ///< Per p: [Gamma_0..nu].
  std::vector<double> eigenvalues;  ///< Dominant eigenvalue per p.
  std::size_t total_iterations = 0; ///< Power iterations summed over the grid
                                    ///< (0 for reduced-solver sweeps).
};

/// Options for general-landscape sweeps.
struct SweepOptions {
  double tolerance = 1e-12;
  unsigned max_iterations = 1000000;
  bool use_shift = true;

  /// Tiling plan for the banded Fmmp kernel at every grid point.
  transforms::BlockedPlan plan;

  /// Autotune the banded plan once, at the first grid point, and reuse the
  /// winner for the rest of the sweep (the operator shape does not change
  /// with p, only its factors).
  bool autotune = false;

  /// Continuation strategy along the grid: each solve starts from the
  /// previous eigenvector (warm start), optionally secant-extrapolated one
  /// grid step forward — x(p_i) ~ 2 x(p_{i-1}) - x(p_{i-2}) — which tracks
  /// the smooth drift of the quasispecies with p and cuts iterations again.
  bool warm_start = true;
  bool extrapolate = true;

  const parallel::Engine* engine = nullptr;
};

/// Evenly spaced grid of `count` points in [lo, hi]. Requires count >= 2 and
/// 0 < lo < hi <= 1/2.
std::vector<double> error_rate_grid(double lo, double hi, std::size_t count);

/// Sweeps an error-class landscape through the exact reduced solver.
SweepResult sweep_error_rates(const core::ErrorClassLandscape& landscape,
                              std::span<const double> error_rates);

/// Sweeps a general landscape with the Fmmp-based power iteration; each grid
/// point starts from the previous eigenvector.
SweepResult sweep_error_rates(const core::Landscape& landscape,
                              std::span<const double> error_rates,
                              const SweepOptions& options = {});

/// Emits the sweep as CSV: header "p,G0,...,Gnu,eigenvalue", one row per p.
void write_sweep_csv(const SweepResult& sweep, std::ostream& out);

/// Options for landscape-family solves.
struct FamilyOptions {
  /// Convergence threshold on every landscape's relative 2-norm residual
  /// ||W_j x_j - lambda_j x_j||_2 / (lambda_j ||x_j||_2), the facade's rule.
  double tolerance = 1e-12;
  unsigned max_iterations = 1000000;

  /// Residuals are checked every k-th panel product and at max_iterations;
  /// only these checks can end the solve, so panel_products is a multiple
  /// of k unless max_iterations, a stall or a cancellation stops it.  The
  /// eigenvalue estimates update at checks, not at every product.
  unsigned residual_check_every = 8;

  const parallel::Engine* engine = nullptr;

  /// Tiling plan for the banded panel kernels.
  transforms::BlockedPlan plan;

  /// Cooperative cancellation, polled once per panel product (at a
  /// residual check, after the tolerance test): returning true ends the
  /// joint solve at the next iteration boundary with
  /// cancelled = true on the result (converged stays false).  Must be
  /// cheap and thread-safe (typically an atomic load); the solver service
  /// uses it to abort batches whose deadlines passed or whose clients all
  /// disconnected.
  std::function<bool()> should_stop;
};

/// What a joint solve of a same-Q landscape family reports for its
/// columns.  Eigenvalues (Rayleigh quotients) and relative 2-norm
/// residuals are those of the last residual check (0 and +inf before the
/// first).
struct FamilyOutcome {
  std::vector<double> eigenvalues;  ///< lambda_0 of W_j = Q F_j.
  std::vector<double> residuals;    ///< Relative residual per j.
  unsigned panel_products = 0;  ///< Panel matvecs performed (each advances
                                ///< every landscape one power step).
  bool converged = false;       ///< All landscapes met the tolerance (or
                                ///< stalled below the facade's stall_accept).
  bool cancelled = false;       ///< should_stop() ended the solve early.
};

/// A family solve's answer as the loop leaves it: the outcome plus the
/// final iterate panel, which it owns (the huge-page workspace the solve
/// iterated in).  Column j of the panel is landscape j's eigenvector,
/// 1-norm normalised and nonnegative: after the check that stopped the
/// solve, the checked iterate.
class FamilyPanel : public FamilyOutcome {
 public:
  /// Columns m of the panel.
  std::size_t width() const { return width_; }

  /// The interleaved n x m panel: panel()[i*m + j] = element i of column j.
  std::span<const double> panel() const { return panel_; }

  /// [Gamma_0..Gamma_nu] of every column, read off the panel in one pass:
  /// element j is class_concentrations of column j's eigenvector, bit for
  /// bit.
  std::vector<std::vector<double>> class_concentrations() const;

 private:
  friend FamilyPanel solve_landscape_family(const core::MutationModel&,
                                            std::span<const core::Landscape>,
                                            const FamilyOptions&);
  explicit FamilyPanel(std::size_t width)
      : width_(width), storage_(core::Workspace::huge_page_advice) {}

  std::size_t width_;
  core::Workspace storage_;
  std::span<double> panel_;
};

/// Solves the dominant eigenpair of W_j = Q F_j for a whole family of
/// landscapes F_0..F_{m-1} sharing one mutation model Q in lock-step: the m
/// iterates are interleaved into one panel, and each power step is a single
/// banded *panel* product (each column pre-scaled by its own landscape,
/// read in place; the butterfly amortised across the family).  The family
/// is one width-m participant of solvers::run_power_loop, unshifted:
/// between residual checks a product runs in place and the iterate stays
/// unnormalised, a check runs it out of place with two passes,
/// renormalisations that cannot end the solve keep every column's 1-norm
/// within 2^+-64, and the solve stops by the facade's rule on the worst
/// column.  Every column sum is tree-ordered over rows, so all engines give
/// the same bits, and a one-column family is solvers::solve with
/// use_shift = false and this cadence, bit for bit.  The solve holds the
/// landscapes (the caller's) and two n x m panels, the iterate and the
/// product, and returns the iterate's.  Typical use: parameter studies
/// where the landscape varies and p is fixed.  Requires a non-empty family
/// with every landscape of Q's dimension.
FamilyPanel solve_landscape_family(const core::MutationModel& model,
                                   std::span<const core::Landscape> family,
                                   const FamilyOptions& options = {});

/// solve_landscape_family with every column de-interleaved into its own
/// vector.
struct FamilyResult : FamilyOutcome {
  std::vector<std::vector<double>> eigenvectors;  ///< Concentrations, 1-norm
                                                  ///< normalised, nonnegative.
};

/// solve_landscape_family, then the eigenvectors copied out of the panel
/// (the iterate panel is freed on return).
FamilyResult sweep_landscape_family(const core::MutationModel& model,
                                    std::span<const core::Landscape> family,
                                    const FamilyOptions& options = {});

}  // namespace qs::analysis
