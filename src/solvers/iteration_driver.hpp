// Shared iteration scaffolding for every eigensolver in the library.
//
// The three production eigensolvers (power, block power, Arnoldi) are
// "apply W, update, check residual" loops that share one resilience kit
// (checkpoint/resume, stall windows, NaN/Inf health guards,
// fault-injection seams).  IterationDriver holds that scaffolding in
// exactly one place:
//
//   * IterationOptions — the shared tuning block (tolerance, iteration cap,
//     residual cadence, stall window, engine, checkpointing, hooks) that
//     every solver's option struct now derives from;
//   * IterationResult — the shared outcome fields every solver's result
//     struct now derives from (converged/stalled/failure/checkpoint stats);
//   * IterationTrace — the resumable accounting state a checkpoint is a
//     serialised snapshot of;
//   * IterationDriver — the stall accounting, SolverFailure raising, and
//     checkpoint writing, consumed by the solver loops through four calls
//     (guard / observe / maybe_checkpoint / restore).
//
// Bit-compatibility contract: `observe` runs one stall-window algorithm for
// every solver, and `restore` takes checkpointed state verbatim, so a
// resumed run reproduces the original residual trajectory bit for bit on
// the serial backend — for every solver, not just the power iteration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "io/binary_io.hpp"
#include "parallel/engine.hpp"
#include "solvers/solver_failure.hpp"

namespace qs::core {
class Workspace;
}  // namespace qs::core

namespace qs::solvers {

/// Tuning knobs shared by every iterative eigensolver.  Solver-specific
/// option structs derive from this block, so the same checkpoint/stall/
/// health configuration drives all of them.  The defaults match the power
/// iteration; Arnoldi adjusts tolerance and disables the stall window in
/// its constructor (its per-cycle residuals drop fast enough that the
/// window would only fire on genuinely hopeless runs).
struct IterationOptions {
  /// Convergence threshold on the solver's relative residual.
  double tolerance = 1e-13;

  /// Iteration cap; exceeding it returns converged = false.  On a resumed
  /// run the cap counts total iterations including the checkpointed ones.
  /// Arnoldi counts restart cycles against its own `max_restarts` instead
  /// and ignores this field.
  unsigned max_iterations = 1000000;

  /// Compute the residual only every k-th iteration (ablation knob; for the
  /// solvers whose residual falls out of the iteration for free this only
  /// changes reduction counts, not products).
  unsigned residual_check_every = 1;

  /// Stagnation detection at the numerical floor: the iteration stops as
  /// stalled when the best residual seen has not improved by at least 5 %
  /// across a window of this many residual checks AND that best residual
  /// is at most the floor bound kStallFloorSlack * bit_width(N) * eps of
  /// an N-element problem (stall_floor_bound; docs/THEORY.md section 5).
  /// A window without progress above the bound is not a stall: near the
  /// error threshold the residual first rises from the landscape start,
  /// and such a solve still converges.  0 disables.
  unsigned stall_window = 100;

  /// A stalled run still counts as converged when its floor residual is at
  /// most this value (set equal to `tolerance` to make stalling a failure).
  double stall_accept = 1e-9;

  /// Fan-out backend; null means serial.  The power iteration splits each
  /// pass over the iterate across the engine's lanes in aligned blocks
  /// whose partial sums combine in the one tree order, so an engine changes
  /// the speed of a solve, never its bits.
  const parallel::Engine* engine = nullptr;

  /// Preallocated scratch arena (see core/workspace.hpp); null makes each
  /// solve allocate its own temporaries.  Passing the same workspace across
  /// repeated solves (sweeps, recovery retries) reuses the buffers.
  core::Workspace* workspace = nullptr;

  /// Periodic checkpointing: every `checkpoint_every` iterations the current
  /// state is persisted to `checkpoint_path` (atomically; a crash mid-write
  /// never tears an existing checkpoint).  0 or an empty path disables.
  /// A checkpoint is only written while the iterate is finite, so the last
  /// checkpoint on disk is always a good restart point.
  std::filesystem::path checkpoint_path;
  unsigned checkpoint_every = 0;

  /// Wall-clock checkpoint cadence, unioned with the iteration cadence: a
  /// checkpoint is written when EITHER `checkpoint_every` iterations have
  /// passed OR this many seconds have elapsed since the last write (the
  /// clock is read only at checkpoint opportunities, so the actual period
  /// is quantised to iteration boundaries; the power iteration reads it at
  /// residual checks, on the root, so every participant of a distributed
  /// solve agrees on the write).  0 disables the time cadence.  Use this
  /// instead of guessing an iteration count when the per-iteration cost
  /// varies across hosts or problem sizes.
  double checkpoint_every_seconds = 0.0;

  /// Testing/observability seam: when set, checkpoints go through this sink
  /// instead of binary_io (checkpoint_path is then ignored).  A sink that
  /// throws models checkpoint I/O failure; the solve records the failure in
  /// IterationResult::checkpoint_failures and keeps iterating — durability
  /// degrades, the solve does not die.
  std::function<void(const io::SolverCheckpoint&)> checkpoint_sink;

  /// Observability hook invoked at every residual check with the iteration
  /// number and the relative residual (used by the resume tests to prove
  /// bitwise-equal trajectories, and handy for progress reporting).
  std::function<void(unsigned iteration, double residual)> on_residual;

  /// Cooperative cancellation: polled at every residual check, AFTER the
  /// tolerance test (a solve that converged on the same iteration its
  /// deadline expired still reports success).  Returning true aborts the
  /// solve at the next iteration boundary with failure = cancelled and a
  /// final checkpoint flush (when checkpointing is configured) — a deadline
  /// or client disconnect ends the solve cleanly instead of wedging it.
  /// The hook must be cheap and thread-safe (typically an atomic load).
  std::function<bool()> should_stop;
};

/// Slack of the stall floor bound over bit_width(N) * eps.  A tree-ordered
/// sum rounds each partial about log2(N) times, so a converged iterate's
/// relative residual sits near bit_width(N) * eps (measured 1e-19 to 5e-16
/// for nu = 8 to 18); a clustered spectrum amplifies that floor by
/// 1 / (1 - lambda_1 / lambda_0), which the slack absorbs up to ~1000.
inline constexpr double kStallFloorSlack = 1000.0;

/// The residual below which a window without progress counts as a stall
/// for a problem of `dimension` unknowns: kStallFloorSlack * bit_width(N)
/// * eps (about 4e-12 at N = 2^16).
double stall_floor_bound(std::size_t dimension);

/// Outcome fields shared by every solver's result struct.
struct IterationResult {
  double eigenvalue = 0.0;          ///< Dominant eigenvalue estimate.
  unsigned iterations = 0;          ///< Driver iterations performed (total,
                                    ///< including checkpointed ones on resume).
  double residual = 0.0;            ///< Relative residual at exit.
  bool converged = false;
  bool stalled = false;             ///< Stopped at the numerical floor
                                    ///< above `tolerance` (see stall_window).
  SolverFailure failure = SolverFailure::none;  ///< Structured failure reason.
  unsigned checkpoint_failures = 0; ///< Checkpoint writes that threw (the
                                    ///< solve continues; durability degrades).
};

/// Everything the iteration loop needs to start or resume mid-run; a
/// checkpoint is exactly a serialised snapshot of this state.  `iterate` is
/// taken verbatim by the solvers (callers normalise cold starts; resumes
/// must not re-normalise or the trajectory would diverge from the original
/// run in the last bits).
struct IterationTrace {
  std::vector<double> iterate;      ///< Solver-native iterate (or panel).
  unsigned start_iteration = 0;     ///< Driver iterations already performed.
  double eigenvalue = 0.0;
  double residual = 0.0;
  std::uint64_t matvec_count = 0;   ///< Operator products already performed.
  double aux = 0.0;                 ///< Solver-specific scalar (block width).
  io::ShiftScheduleState schedule;  ///< The power iteration's shift schedule.
};

/// The one place stall accounting, SolverFailure raising, and checkpoint
/// writing live.  One driver instance serves one solve.
class IterationDriver {
 public:
  /// `options` must outlive the driver; `kind` stamps every checkpoint so a
  /// resume can refuse state written by a different iteration scheme;
  /// `dimension` is the problem size N that sets the stall floor bound.
  IterationDriver(const IterationOptions& options, io::SolverKind kind,
                  std::size_t dimension);

  /// Restores the stall-window accounting from a checkpoint, verbatim.
  void restore(const io::SolverCheckpoint& checkpoint);

  /// True when periodic checkpointing is configured.
  bool checkpointing() const { return checkpointing_; }

  /// Residual-check cadence: true on every residual_check_every-th
  /// iteration and on the final one.
  bool should_check(unsigned iteration, unsigned last_iteration) const {
    return (iteration % options_.residual_check_every == 0) ||
           (iteration == last_iteration);
  }

  /// Numerical-health guard: returns true when every value is finite.
  /// Otherwise stamps failure = non_finite / converged = false into `out`
  /// and returns false — the caller breaks its loop.
  bool guard(std::initializer_list<double> values, IterationResult& out) const;

  /// Guard over a whole iterate (used to refuse poisoned starts/resumes).
  bool guard(std::span<const double> iterate, IterationResult& out) const;

  /// What `observe` decided the loop should do.
  enum class Verdict {
    proceed,    ///< Keep iterating.
    converged,  ///< Residual at or below tolerance; out.converged set.
    stalled,    ///< Stall window fired; out.stalled (and maybe converged) set.
    cancelled,  ///< should_stop() returned true; out.failure = cancelled.
  };

  /// One residual observation: fires the on_residual hook, tests the
  /// tolerance, and advances the stall-window accounting (a stall needs a
  /// window without progress at or below the floor bound).  The caller
  /// stamps out.eigenvalue / out.residual before calling.
  /// A set `stop` is the caller's cancellation verdict, used instead of
  /// polling should_stop (the power loop polls the hook itself and agrees
  /// the vote across participants first); it too counts only after the
  /// tolerance test.
  Verdict observe(unsigned iteration, double residual, IterationResult& out,
                  std::optional<bool> stop = std::nullopt);

  /// Wall-clock cadence alone: true when checkpoint_every_seconds is set
  /// and that long has passed since the last write (or construction).
  bool checkpoint_time_due() const;

  /// Whether iteration `iteration` writes a checkpoint, with the
  /// wall-clock half of the cadence decided by the caller (`time_due`).
  bool checkpoint_due(unsigned iteration, bool time_due) const {
    return checkpointing_ &&
           ((options_.checkpoint_every > 0 &&
             iteration % options_.checkpoint_every == 0) ||
            time_due);
  }

  /// Periodic checkpoint: persists the current state when the cadence says
  /// so.  Call only after the health guards passed, so the last checkpoint
  /// on disk is always a finite, resumable state.  A failing write degrades
  /// durability (counted in out.checkpoint_failures) but must not kill a
  /// long solve.
  void maybe_checkpoint(unsigned iteration, IterationResult& out,
                        std::span<const double> iterate,
                        std::uint64_t matvec_count = 0, double aux = 0.0);

  /// Unconditional checkpoint write (same failure semantics); used by
  /// solvers that persist state at irregular boundaries.  `schedule` is
  /// the power iteration's shift schedule state.
  void write_checkpoint(unsigned iteration, IterationResult& out,
                        std::span<const double> iterate,
                        std::uint64_t matvec_count = 0, double aux = 0.0,
                        const io::ShiftScheduleState& schedule = {});

 private:
  const IterationOptions& options_;
  io::SolverKind kind_;
  double stall_floor_;  ///< stall_floor_bound(dimension).
  bool checkpointing_ = false;
  double best_residual_;
  double window_start_best_;
  double last_residual_ = 0.0;  ///< Previous observation (decay telemetry).
  unsigned checks_without_progress_ = 0;
  std::uint64_t last_checkpoint_ns_ = 0;  ///< monotonic_ns at construction /
                                          ///< last write (time cadence).
};

/// Builds an IterationTrace from a checkpoint, taking the iterate verbatim.
/// `expected` is the solver kind doing the resume; a checkpoint written by a
/// different solver is refused (precondition error with a clear message) —
/// v2 checkpoints carry no kind and are accepted by the power iteration
/// only.  Returns false (with failure = non_finite stamped into `out`) when
/// the checkpointed iterate is poisoned; the caller must not iterate on it.
bool restore_trace(const io::SolverCheckpoint& checkpoint, io::SolverKind expected,
                   IterationTrace& trace, IterationResult& out);

}  // namespace qs::solvers
