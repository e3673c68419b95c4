// PlannedOperator — the operator layer's one-stop execution object.
//
// Before this layer every call site that wanted the fast product assembled
// the pieces itself: construct an FmmpOperator, thread a BlockedPlan through,
// optionally run the autotuner, and allocate its own scratch.  A
// PlannedOperator owns all of it in one object:
//
//   * the FmmpOperator (model copy + landscape reference + formulation),
//   * the banded/panel butterfly tiling plan — either the caller's fixed
//     plan or the result of running transforms::autotune_blocked_plan at
//     construction (the report is retained for observability),
//   * a preallocated scratch Workspace shared with the solver loops, so the
//     per-iteration hot path performs zero heap allocations.
//
// `apply` / `apply_panel` route through the owned plan on every backend
// (serial, thread_pool).  The facade, qs_solve/qs_sweep, the block
// solver, and the benches all build their operator through this class.
#pragma once

#include <memory>
#include <optional>

#include "core/fmmp.hpp"
#include "core/workspace.hpp"
#include "obs/trace.hpp"
#include "transforms/plan_autotune.hpp"

namespace qs::core {

/// Construction-time configuration for a PlannedOperator.
struct PlannedOperatorConfig {
  Formulation formulation = Formulation::right;

  /// Execution engine the banded kernel's band sweeps run on; null means
  /// the serial engine (inline on the calling thread).  Every engine
  /// computes the same bits.
  const parallel::Engine* engine = nullptr;

  /// Starting tiling plan (the hand-tuned default unless overridden).
  transforms::BlockedPlan plan;

  /// Measure a candidate grid at this problem size during construction and
  /// adopt the fastest plan (never slower than `plan` up to timing noise);
  /// the full report is retained (see autotune_report()).
  bool autotune = false;

  /// Panel width the autotuner should optimise for (m = 1 tunes the
  /// single-vector banded kernel); only used when autotune is set.
  std::size_t autotune_panel_width = 1;
};

/// Implicit fast product with W that owns its plan, autotune result, and
/// scratch workspace.
class PlannedOperator final : public LinearOperator {
 public:
  /// Builds the operator.  `model` is copied (it is small); `landscape` is
  /// referenced and must outlive the operator, as must `config.engine` when
  /// non-null.  With config.autotune set the constructor runs the plan
  /// autotuner once (a few dozen banded matvecs) before building the
  /// underlying FmmpOperator with the winning plan.
  PlannedOperator(MutationModel model, const Landscape& landscape,
                  const PlannedOperatorConfig& config = {});

  seq_t dimension() const override { return op_->dimension(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    QS_TRACE_SPAN("fmmp.apply", kernel);
    op_->apply(x, y);
  }
  bool apply_step(std::span<const double> x, std::span<double> y,
                  transforms::BandStep& step) const override {
    QS_TRACE_SPAN("fmmp.apply", kernel);
    return op_->apply_step(x, y, step);
  }
  std::string_view name() const override { return "PlannedFmmp"; }
  std::optional<FitnessRange> fitness_range() const override {
    return op_->fitness_range();
  }

  /// Panel product Y <- W X on an interleaved panel of m vectors; see
  /// FmmpOperator::apply_panel.
  void apply_panel(std::span<const double> x, std::span<double> y,
                   std::size_t m) const {
    QS_TRACE_SPAN_ARG("fmmp.apply_panel", kernel, m);
    op_->apply_panel(x, y, m);
  }

  /// The underlying Fmmp operator (for call sites that need the concrete
  /// type, e.g. the block solver's formulation check).
  const FmmpOperator& fmmp() const { return *op_; }

  /// The plan the operator executes with (the autotuned one when autotune
  /// was requested and detection/measurement succeeded).
  const transforms::BlockedPlan& plan() const { return op_->plan(); }

  /// The autotune measurements, when config.autotune was set.
  const std::optional<transforms::AutotuneReport>& autotune_report() const {
    return report_;
  }

  /// The scratch arena solver loops draw their temporaries from.  Mutable
  /// through a const operator: scratch contents are not part of the
  /// operator's logical state (one solve at a time, like apply itself).
  /// Its buffers of 2 MiB and up (a single vector from nu = 18 on) are
  /// huge-page mappings: a facade solve builds a fresh operator, so its
  /// product buffer is fresh memory every solve (Workspace).
  Workspace& workspace() const { return workspace_; }

 private:
  std::optional<transforms::AutotuneReport> report_;
  std::unique_ptr<FmmpOperator> op_;
  mutable Workspace workspace_{Workspace::huge_page_advice};
};

}  // namespace qs::core
