#include "solvers/iteration_driver.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/contracts.hpp"
#include "support/timer.hpp"

namespace qs::solvers {
namespace {

/// A checkpoint's kind field comes from a file, so it may hold a retired
/// solver's number or garbage: those are named by their number.
std::string kind_name(io::SolverKind kind) {
  switch (kind) {
    case io::SolverKind::unspecified: return "power";
    case io::SolverKind::arnoldi: return "arnoldi";
    case io::SolverKind::block_power: return "block_power";
  }
  return "retired or unknown kind " +
         std::to_string(static_cast<std::uint32_t>(kind));
}

}  // namespace

double stall_floor_bound(std::size_t dimension) {
  return kStallFloorSlack * static_cast<double>(std::bit_width(dimension)) *
         std::numeric_limits<double>::epsilon();
}

IterationDriver::IterationDriver(const IterationOptions& options,
                                 io::SolverKind kind, std::size_t dimension)
    : options_(options),
      kind_(kind),
      stall_floor_(stall_floor_bound(dimension)),
      checkpointing_((options.checkpoint_every > 0 ||
                      options.checkpoint_every_seconds > 0.0) &&
                     (options.checkpoint_sink || !options.checkpoint_path.empty())),
      best_residual_(std::numeric_limits<double>::infinity()),
      window_start_best_(std::numeric_limits<double>::infinity()),
      last_checkpoint_ns_(monotonic_ns()) {
  require(options.residual_check_every >= 1,
          "iteration driver: residual_check_every must be >= 1");
  require(options.checkpoint_every_seconds >= 0.0,
          "iteration driver: checkpoint_every_seconds must be >= 0");
}

void IterationDriver::restore(const io::SolverCheckpoint& checkpoint) {
  best_residual_ = checkpoint.best_residual;
  window_start_best_ = checkpoint.window_start_best;
  checks_without_progress_ =
      static_cast<unsigned>(checkpoint.checks_without_progress);
  // Seed the decay telemetry so a resumed run's first ratio is measured
  // against the checkpointed residual, not recorded as a cold start.
  last_residual_ = std::isfinite(checkpoint.residual) ? checkpoint.residual : 0.0;
}

bool IterationDriver::guard(std::initializer_list<double> values,
                            IterationResult& out) const {
  for (double v : values) {
    if (!std::isfinite(v)) {
      QS_TRACE_INSTANT("solver.health_guard", solver, v);
      out.failure = SolverFailure::non_finite;
      out.converged = false;
      return false;
    }
  }
  return true;
}

bool IterationDriver::guard(std::span<const double> iterate,
                            IterationResult& out) const {
  for (double v : iterate) {
    if (!std::isfinite(v)) {
      QS_TRACE_INSTANT("solver.health_guard", solver, v);
      out.failure = SolverFailure::non_finite;
      out.converged = false;
      return false;
    }
  }
  return true;
}

IterationDriver::Verdict IterationDriver::observe(unsigned iteration,
                                                  double residual,
                                                  IterationResult& out,
                                                  std::optional<bool> stop) {
  if (options_.on_residual) options_.on_residual(iteration, residual);
  obs::metrics().record_residual(residual);
  QS_TRACE_INSTANT_ARG("solver.residual", solver, residual, iteration);
  // Per-check decay ratio r_k / r_{k-1}: the distribution's p50 is the
  // observed contraction factor, and mass near/above 1.0 flags stagnation
  // before the stall window fires.  Unitless, so STATS exposes it under
  // qs_ratio rather than qs_latency_seconds.
  if (last_residual_ > 0.0 && std::isfinite(residual) && residual > 0.0) {
    static obs::Histogram& decay_hist = obs::histogram("solver.residual_decay");
    decay_hist.record(residual / last_residual_);
  }
  last_residual_ = std::isfinite(residual) ? residual : 0.0;
  if (residual <= options_.tolerance) {
    QS_TRACE_INSTANT_ARG("solver.converged", solver, residual, iteration);
    out.converged = true;
    return Verdict::converged;
  }
  // Cooperative cancellation sits after the tolerance test: a solve that
  // converged on the same check its deadline expired still reports success.
  if (stop ? *stop : (options_.should_stop && options_.should_stop())) {
    QS_TRACE_INSTANT_ARG("solver.cancelled", solver, residual, iteration);
    out.converged = false;
    out.failure = SolverFailure::cancelled;
    return Verdict::cancelled;
  }
  // Stagnation: the residual has hit its numerical floor.  The test is
  // window-based (best-vs-best across a whole window of checks) so that
  // jitter around the floor cannot keep resetting it, and it fires only
  // near the floor bound: a window without progress far above it (the rise
  // from the landscape start at the error threshold) starts a new window.
  best_residual_ = std::min(best_residual_, residual);
  if (options_.stall_window > 0 &&
      ++checks_without_progress_ >= options_.stall_window) {
    if (best_residual_ >= window_start_best_ * 0.95 &&
        best_residual_ <= stall_floor_) {
      QS_TRACE_INSTANT_ARG("solver.stalled", solver, best_residual_, iteration);
      out.stalled = true;
      out.converged = residual <= options_.stall_accept;
      return Verdict::stalled;
    }
    window_start_best_ = best_residual_;
    checks_without_progress_ = 0;
  }
  return Verdict::proceed;
}

bool IterationDriver::checkpoint_time_due() const {
  // Read the clock only when configured, so iteration-only checkpointing
  // costs no clock call per iteration.
  return options_.checkpoint_every_seconds > 0.0 &&
         static_cast<double>(monotonic_ns() - last_checkpoint_ns_) * 1e-9 >=
             options_.checkpoint_every_seconds;
}

void IterationDriver::maybe_checkpoint(unsigned iteration, IterationResult& out,
                                       std::span<const double> iterate,
                                       std::uint64_t matvec_count, double aux) {
  if (checkpoint_due(iteration, checkpoint_time_due())) {
    write_checkpoint(iteration, out, iterate, matvec_count, aux);
  }
}

void IterationDriver::write_checkpoint(unsigned iteration, IterationResult& out,
                                       std::span<const double> iterate,
                                       std::uint64_t matvec_count, double aux,
                                       const io::ShiftScheduleState& schedule) {
  QS_TRACE_SPAN_ARG("checkpoint.write", checkpoint, iteration);
  last_checkpoint_ns_ = monotonic_ns();
  io::SolverCheckpoint ck;
  ck.iteration = iteration;
  ck.eigenvalue = out.eigenvalue;
  ck.residual = out.residual;
  ck.best_residual = best_residual_;
  ck.window_start_best = window_start_best_;
  ck.checks_without_progress = checks_without_progress_;
  ck.solver_kind = kind_;
  ck.matvec_count = matvec_count;
  ck.aux = aux;
  ck.schedule = schedule;
  ck.eigenvector.assign(iterate.begin(), iterate.end());
  try {
    if (options_.checkpoint_sink) {
      options_.checkpoint_sink(ck);
    } else {
      io::save_checkpoint(options_.checkpoint_path, ck);
    }
  } catch (...) {
    QS_TRACE_INSTANT_ARG("checkpoint.write_failed", checkpoint, 0.0, iteration);
    ++out.checkpoint_failures;
  }
}

bool restore_trace(const io::SolverCheckpoint& checkpoint, io::SolverKind expected,
                   IterationTrace& trace, IterationResult& out) {
  require(checkpoint.solver_kind == expected,
          std::string("resume: checkpoint was written by the '") +
              kind_name(checkpoint.solver_kind) + "' solver, not '" +
              kind_name(expected) + "'");
  trace.iterate = checkpoint.eigenvector;
  trace.start_iteration = static_cast<unsigned>(checkpoint.iteration);
  trace.eigenvalue = checkpoint.eigenvalue;
  trace.residual = checkpoint.residual;
  trace.matvec_count = checkpoint.matvec_count;
  trace.aux = checkpoint.aux;
  trace.schedule = checkpoint.schedule;
  // A checkpoint is only ever written with a finite iterate, but the file
  // may come from anywhere; refuse to iterate on a poisoned start.
  for (double v : trace.iterate) {
    if (!std::isfinite(v)) {
      out.failure = SolverFailure::non_finite;
      out.converged = false;
      return false;
    }
  }
  return true;
}

}  // namespace qs::solvers
