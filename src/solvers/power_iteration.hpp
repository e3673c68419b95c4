// Power iteration for the dominant eigenpair of an implicit operator
// (Section 3 of the paper).
//
// The paper selects the power iteration over Lanczos/Arnoldi (fewer stored
// vectors) and over randomised sketching (accuracy): with W positive
// definite and Perron-Frobenius applicable, lambda_0 > lambda_1 >= ... > 0
// guarantees convergence.  The spectral shift mu (W - mu I) improves the
// convergence ratio from lambda_1/lambda_0 to (lambda_1-mu)/(lambda_0-mu);
// the conservative choice mu = (1-2p)^nu f_min from core/spectral.hpp is
// always admissible.
//
// Resilience: the loop runs through solvers/iteration_driver, which owns the
// periodic checkpointing (write-to-temp-then-rename, checksummed), the stall
// window, and the NaN/Inf health guards; a resumed run continues the
// original residual trajectory bit for bit, and a non-finite iterate is
// detected at residual-check cadence and reported as a structured
// SolverFailure instead of spinning max_iterations on garbage.
//
// There is one power iteration, run_power_loop below.  A serial solve, an
// engine-parallel one, every rank of a distributed solve and a landscape
// family's panel (analysis::sweep_landscape_family) run it over a
// BlockCollective; a column gets the same bits on all of them.
#pragma once

#include <concepts>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/operators.hpp"
#include "io/binary_io.hpp"
#include "solvers/iteration_driver.hpp"

namespace qs::solvers {

/// Tuning knobs for the power iteration: the shared iteration block (see
/// solvers/iteration_driver.hpp for tolerance, max_iterations, residual
/// cadence, stall window, engine, workspace, and checkpointing) plus the
/// spectral shift.
struct PowerOptions : IterationOptions {
  /// Spectral shift mu: iterates with (W - mu I).  A positive shift must
  /// bound a real spectrum from below (mu <= lambda_min(W), as the
  /// conservative shift of a symmetric model does): with a residual check
  /// every product it also anchors the Chebyshev shift schedule of
  /// run_power_loop.
  double shift = 0.0;
};

/// What the Chebyshev shift schedule of run_power_loop did in one solve.
/// `engaged_at` is 0 when the schedule never cycled.
struct ShiftScheduleReport {
  unsigned engaged_at = 0;  ///< Iteration the last cycling engaged.
  double decay = 0.0;       ///< rho-hat, the residual decay it was sized from.
  double lower = 0.0;       ///< mu, the interval's bottom.
  double upper = 0.0;       ///< lambda-hat_2, the interval's top.
  unsigned fallbacks = 0;   ///< Cycles that failed to lower the residual.
};

/// Where a power loop formed pass 1 of its residual checks.
enum class CheckPath : unsigned char {
  passes,  ///< A standalone pass over the block after each check product.
  fused,   ///< Inside the check products' last band (transforms::BandStep).
};

/// "passes" or "fused".
const char* to_string(CheckPath path);

/// Outcome of a power iteration run: the shared outcome fields (eigenvalue,
/// iterations, residual, converged/stalled/failure, checkpoint statistics)
/// plus the eigenvector.
struct PowerResult : IterationResult {
  std::vector<double> eigenvector;  ///< 1-norm normalised, nonnegative (per
                                    ///< column of an interleaved panel).
  /// Per column: the Rayleigh quotient and relative residual of the last
  /// residual check (the trace's values before the first).  The scalar
  /// eigenvalue and residual are those of the column with the largest
  /// residual, the one the driver observed.
  std::vector<double> column_eigenvalues;
  std::vector<double> column_residuals;
  ShiftScheduleReport shift_schedule;
  /// The largest, over the columns, of the ratio of the 1-norm the
  /// orientation pass zeroed (the entries whose sign opposes the column's
  /// dominant one) to the kept part's 1-norm.  Only a converged solve
  /// zeroes entries: 0 when it did not converge, and when every entry had
  /// the dominant sign.
  double dropped_mass = 0.0;
  CheckPath check_path = CheckPath::passes;
};

/// Runs the (shifted) power iteration on `op` starting from `start`
/// (empty selects the uniform vector).  The start is 1-norm normalised
/// with the tree-ordered norm, once: a start already normalised to within
/// rounding, such as landscape_start's, is used verbatim.
///
/// The paper's recommended start is the landscape itself,
/// s = diag(F)/||diag(F)||_1, since the dominant eigenvector of W = Q F
/// resembles F (the dominant eigenvector of Q alone is the uniform vector).
PowerResult power_iteration(const core::LinearOperator& op,
                            std::span<const double> start = {},
                            const PowerOptions& options = {});

namespace detail {
PowerResult power_iteration_owned(const core::LinearOperator& op,
                                  std::vector<double> start,
                                  const PowerOptions& options);
}  // namespace detail

/// The same, for a temporary start such as landscape_start(...): its
/// storage becomes the iterate, so the solve allocates (and page-faults)
/// one N-vector fewer.  A template only so that an empty `{}` start keeps
/// selecting the overload above.
template <typename Start>
  requires std::same_as<Start, std::vector<double>>
PowerResult power_iteration(const core::LinearOperator& op, Start&& start,
                            const PowerOptions& options = {}) {
  return detail::power_iteration_owned(op, std::move(start), options);
}

/// Resumes a power iteration from a checkpoint written by a previous run
/// with the same operator and options.  The iterate is taken verbatim (no
/// re-normalisation) and the stall-window state is restored, so the
/// residual trajectory from the checkpoint iteration onward is
/// bit-identical to the uninterrupted run, whichever engine or rank count
/// wrote the checkpoint.
PowerResult resume_power_iteration(const core::LinearOperator& op,
                                   const io::SolverCheckpoint& checkpoint,
                                   const PowerOptions& options = {});

/// True when a checkpointed shift schedule state is one run_power_loop can
/// resume: its cycle slot exists and, while cycling, its interval is finite.
bool valid_shift_schedule(const io::ShiftScheduleState& state);

/// The paper's starting vector for a given landscape: diag(F) scaled by
/// the reciprocal of its tree-ordered 1-norm — the same vector a
/// distributed solve starts from (distributed::tree_landscape_start is
/// this function).
std::vector<double> landscape_start(const core::Landscape& landscape);

/// What one participant of a power iteration needs from the others.  The
/// iterate is split into aligned power-of-two blocks of rows, one per
/// participant, and a row holds m interleaved columns, each iterated
/// independently; every sum of the loop is a per-column block partial
/// completed by `allreduce`, and a block partial is a complete subtree of
/// the whole column's summation tree (linalg/tree_reduce.hpp), so the totals
/// do not depend on the split.  A serial solve is the one-participant,
/// one-column case: the product is the operator, and the reduction and the
/// gather are the identity.  A landscape family is one participant with m
/// columns; the ranks of a distributed solve implement one column over
/// their Exchange.
class BlockCollective {
 public:
  virtual ~BlockCollective() = default;

  /// y = W x on this participant's block (every column at once).  When
  /// aliasing() is true, x and y may be the same span.
  virtual void apply(std::span<const double> x, std::span<double> y) = 0;

  /// apply(x, y) with `step`'s epilogue on the product's last band
  /// (core::LinearOperator::apply_step); false, having done nothing, when
  /// the product cannot carry it — the default.
  virtual bool apply_step(std::span<const double> /*x*/, std::span<double> /*y*/,
                          transforms::BandStep& /*step*/) {
    return false;
  }

  /// Completes block partial sums element-wise, in tree order across the
  /// participants; every participant receives the same bits.
  virtual void allreduce(std::span<double> values) = 0;

  /// Gathers the iterate blocks; returns the whole iterate on the root and
  /// an empty span elsewhere.  Every participant must call it together.
  virtual std::span<const double> gather(std::span<const double> x) = 0;

  /// True on the participant that writes checkpoints.
  virtual bool is_root() const = 0;

  /// Number of participants.  A lone participant may stop between checks.
  virtual unsigned participants() const = 0;

  /// Columns m of the iterate.
  virtual std::size_t width() const { return 1; }

  /// True when apply(x, x) is exact.
  virtual bool aliasing() const { return false; }

  /// The fitness range of every column's product (core::FitnessRange),
  /// when known; it bounds how long an iterate may stay unnormalised.
  virtual std::optional<core::FitnessRange> fitness_range() const {
    return std::nullopt;
  }
};

/// The power iteration: starting from `trace.iterate` (this participant's
/// block, taken verbatim), iterate x <- (W - shift I) x / ||.||_1 column by
/// column until the driver stops it, then orient every column to its
/// dominant sign and 1-normalise it; a converged solve first zeroes the
/// entries of the other sign (dropped_mass).  The control plane is
/// replicated: every participant runs its own `driver` on the same
/// allreduced values, observing the column with the
/// largest residual; the stop vote and the root's wall-clock checkpoint
/// cadence travel with the residual sums, and only the root writes
/// checkpoints (of the gathered iterate) — so a checkpoint written under one
/// decomposition resumes under any other.
///
/// A residual check (every options.residual_check_every-th product and the
/// last) is the product out of place plus two passes over the block:
///   1  {x.x, x.y, ||y - mu x||_1}               per column, one allreduce
///   2  ||y - lambda x||_2^2, y <- (y - mu x) / ||y - mu x||_1,
///                                               per column, one allreduce
/// after which y is the iterate; a check that stops the solve keeps the
/// checked iterate x.  When the collective's apply_step can carry it — a
/// lone one-column participant over a banded Fmmp — pass 1 rides in the
/// check product itself: the last band sums each chunk of y it finishes,
/// and the chunk sums, complete subtrees of the one summation tree, combine
/// into the standalone pass's bits (out.check_path says which ran).  Pass
/// 2 cannot ride in the next product's first band: that band overwrites x,
/// which a check that stops must keep.  Between checks a product runs with
/// no reduction: in place when shift == 0 and the collective allows
/// aliasing, otherwise out of place followed, when shift != 0, by one pass
/// y <- y - mu x.  Such an unnormalised stretch lasts at most K =
/// floor(64 / log2 s) products, s the larger of f_max - mu and
/// 1 / (f_min - mu) over the collective's fitness range (K = 1 without
/// one): when K is below the check cadence, every K-th iteration runs the
/// check passes without observing them, and so does one that is due a
/// periodic checkpoint.  Only checks write checkpoints.
/// A lone participant polls should_stop before every product that does not
/// end in a scheduled check, and stops there without a checkpoint flush.
///
/// Chebyshev shift schedule (docs/THEORY.md section 5): with shift > 0 (a
/// lower bound of a real spectrum), a check every product and one column,
/// the loop iterates with the fixed shift until two consecutive residual
/// ratios rho agree to within 5 % below 1, sets lambda-hat_2 = mu +
/// rho (lambda-hat_0 - mu) from the Rayleigh quotient, and from then on
/// takes each product's shift from a fixed cycle of the 8 roots of the
/// degree-8 Chebyshev polynomial on [mu, lambda-hat_2].  Only the scalar
/// of passes 1 and 2 changes.  A cycle that lowers the residual by less
/// than the interval promises raises lambda-hat_2; one that does not lower
/// it falls back to the fixed shift and estimates again.  Every decision is
/// taken on allreduced values, and checkpoints carry the schedule, so
/// engines, rank counts and resumes keep the serial bits.
/// `options.engine` fans the passes out over aligned power-of-two row
/// blocks; it changes the speed, never the bits.
///
/// The product buffer is the options.workspace's product slot (a local
/// workspace's when null).  A non-empty `storage` holds the start instead
/// of trace.iterate (which must then be empty): the loop iterates in it and
/// leaves the final columns there, and out.eigenvector stays empty — so a
/// caller can keep its iterate panel in memory of its choosing (the
/// landscape family's huge-page workspace).
PowerResult run_power_loop(BlockCollective& collective, IterationTrace trace,
                           IterationDriver driver,
                           const IterationOptions& options, double shift,
                           std::span<double> storage = {});

}  // namespace qs::solvers
