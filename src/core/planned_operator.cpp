#include "core/planned_operator.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "transforms/sv_microkernel.hpp"

namespace qs::core {
namespace {

/// Resolves the plan to build with: the caller's fixed plan, or the
/// autotuner's pick seeded around it.
transforms::BlockedPlan resolve_plan(
    unsigned nu, const PlannedOperatorConfig& config,
    std::optional<transforms::AutotuneReport>& report) {
  if (!config.autotune) return config.plan;
  const parallel::Engine& engine = parallel::engine_or_serial(config.engine);
  report = transforms::autotune_blocked_plan(
      nu, engine, std::max<std::size_t>(config.autotune_panel_width, 1));
  return report->best;
}

}  // namespace

PlannedOperator::PlannedOperator(MutationModel model, const Landscape& landscape,
                                 const PlannedOperatorConfig& config) {
  const transforms::BlockedPlan plan = resolve_plan(model.nu(), config, report_);

  op_ = std::make_unique<FmmpOperator>(std::move(model), landscape,
                                       config.formulation, config.engine, plan);

  // Provenance for the metrics snapshot: which microkernel tier the runtime
  // dispatch resolved to and which tiling plan the products will execute
  // with.  This is what makes BENCH_fig2.json rows comparable across hosts.
  obs::MetricsRecorder& m = obs::metrics();
  m.set_info("simd_tier", transforms::resolved_sv_kernel_name(plan.sv_kernel));
  m.set_value("plan.tile_log2", plan.tile_log2);
  m.set_value("plan.chunk_log2", plan.chunk_log2);
  m.set_value("plan.sv_max_radix", plan.sv_max_radix);
  m.set_value("plan.autotuned", report_.has_value() ? 1.0 : 0.0);
  if (report_.has_value() && !report_->timings.empty()) {
    m.set_value("autotune.default_seconds", report_->timings.front().seconds);
    double best = report_->timings.front().seconds;
    for (const transforms::PlanTiming& t : report_->timings)
      best = std::min(best, t.seconds);
    m.set_value("autotune.best_seconds", best);
  }
}

}  // namespace qs::core
