#include "solvers/power_iteration.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "core/workspace.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "parallel/fan_out.hpp"
#include "support/contracts.hpp"
#include "transforms/sv_microkernel.hpp"

namespace qs::solvers {
namespace {

/// The table every reduction of the power iteration runs on.  All tiers
/// return the same bits (the tree order of linalg::tree_reduce); the widest
/// is just the fastest.
const transforms::SvKernels& reduction_kernels() {
  return transforms::sv_kernels_or_scalar(transforms::best_sv_kernels());
}

/// x <- x / ||x||_1 with the tree-ordered 1-norm: multiply by the
/// reciprocal, exactly as the power loop normalises its blocks.
void normalize1_tree(std::span<double> x, const char* what) {
  const double norm = reduction_kernels().tree_abs_sum(x.data(), x.size());
  require(norm > 0.0, what);
  linalg::scale(x, 1.0 / norm);
}

/// Both sums of body(begin, end) -> TreeSums over the fan-out's range.
template <typename Body>
transforms::TreeSums tree_sums(parallel::FanOut& fan, const Body& body) {
  const auto pair = [&body](std::size_t begin, std::size_t end, double* partial) {
    const transforms::TreeSums t = body(begin, end);
    partial[0] = t.first;
    partial[1] = t.second;
  };
  double s[2];
  fan.sums(2, pair, s);
  return {s[0], s[1]};
}

/// Bit 32 of the per-check control word carries the root's wall-clock
/// checkpoint cadence; the bits below sum the participants' stop votes.
constexpr double kControlTimeBit = 4294967296.0;  // 2^32

/// The serial solve's collective: one participant, so the product is the
/// operator and the reductions and the gather are the identity.
class OperatorCollective final : public BlockCollective {
 public:
  explicit OperatorCollective(const core::LinearOperator& op) : op_(op) {}
  void apply(std::span<const double> x, std::span<double> y) override {
    op_.apply(x, y);
  }
  void allreduce(std::span<double>) override {}
  std::span<const double> gather(std::span<const double> x) override { return x; }
  bool is_root() const override { return true; }

 private:
  const core::LinearOperator& op_;
};

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

PowerResult run_power_loop(BlockCollective& collective, IterationTrace trace,
                           IterationDriver driver,
                           const IterationOptions& options, double shift) {
  const std::size_t n = trace.iterate.size();
  const transforms::SvKernels& sv = reduction_kernels();
  parallel::FanOut fan(parallel::engine_or_serial(options.engine), n);
  const bool root = collective.is_root();

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
  const double mu = shift;

  for (unsigned it = trace.start_iteration + 1; it <= options.max_iterations; ++it) {
    QS_TRACE_SPAN_ARG("power.iteration", solver, it);
    collective.apply(x, y);  // y = W x (unshifted product)
    out.iterations = it;

    // Pass B shifts y and yields its 1-norm in the same sweep as the
    // residual.  Its write to y is harmless on every early exit below: y
    // is scratch, and x — what a cancelled solve flushes — is untouched
    // until pass C.
    double norm = 0.0;
    bool time_due = false;
    if (driver.should_check(it, options.max_iterations)) {
      // Rayleigh quotient from the product already in hand.
      const transforms::TreeSums a =
          tree_sums(fan, [&sv, xp, yp](std::size_t begin, std::size_t end) {
            return sv.tree_dot2(xp + begin, yp + begin, end - begin);
          });
      double dots[2] = {a.first, a.second};
      collective.allreduce(dots);
      const double xx = dots[0];
      const double lambda = dots[1] / xx;
      // Residual ||y - lambda x||_2 formed explicitly.  (The algebraically
      // equivalent sqrt(yy - xy^2/xx) cancels catastrophically: its noise
      // floor is sqrt(eps) ~ 1e-8 in eigenvector error, far above the
      // tolerances this solver targets.)
      const transforms::TreeSums b = tree_sums(
          fan, [&sv, xp, yp, lambda, mu](std::size_t begin, std::size_t end) {
            return sv.tree_residual_shift_norm1(xp + begin, yp + begin, end - begin,
                                                lambda, mu, true);
          });
      // The control word rides with the sums: any participant's stop vote
      // cancels everywhere, and the root's clock decides the time cadence.
      double control = 0.0;
      if (options.should_stop && options.should_stop()) control += 1.0;
      if (root && driver.checkpoint_time_due()) control += kControlTimeBit;
      double sums[3] = {b.first, b.second, control};
      collective.allreduce(sums);
      const double res2 = sums[0];
      norm = sums[1];
      time_due = sums[2] >= kControlTimeBit;
      // Numerical-health guard: a NaN/Inf iterate makes both the Rayleigh
      // quotient and the residual non-finite.  Fail fast with a structured
      // reason instead of spinning max_iterations on garbage.
      if (!driver.guard({lambda, res2}, out)) break;
      out.eigenvalue = lambda;
      out.residual =
          std::sqrt(res2) / std::max(std::abs(lambda) * std::sqrt(xx), 1e-300);
      const IterationDriver::Verdict verdict = driver.observe(
          it, out.residual, out, std::fmod(sums[2], kControlTimeBit) != 0.0);
      if (verdict != IterationDriver::Verdict::proceed) {
        // A cancelled solve (deadline, disconnect, SIGTERM) flushes its
        // finite pre-update iterate — the result of iteration it-1 — so a
        // restart resumes exactly this aborted iteration.
        if (verdict == IterationDriver::Verdict::cancelled &&
            driver.checkpointing()) {
          const std::span<const double> full = collective.gather(x);
          if (root) driver.write_checkpoint(it - 1, out, full, it - 1);
        }
        break;
      }
    } else {
      norm = tree_sums(fan, [&sv, xp, yp, mu](std::size_t begin, std::size_t end) {
               return sv.tree_residual_shift_norm1(xp + begin, yp + begin,
                                                   end - begin, 0.0, mu, false);
             }).second;
      collective.allreduce(std::span<double>(&norm, 1));
    }

    // The 1-norm is computed every iteration anyway, so checking it for
    // NaN/Inf costs one compare and catches a poisoned product at the
    // earliest possible iteration — before it can reach a checkpoint.
    if (!driver.guard({norm}, out)) break;
    require(norm > 0.0, "power_iteration: iterate collapsed to zero");
    const double inv = 1.0 / norm;
    fan.run([xp, yp, inv](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) xp[i] = yp[i] * inv;
    });

    // Periodic checkpoint, written only after the health guard above passed:
    // the last checkpoint on disk is always a finite, resumable state.  The
    // decision is replicated (iteration cadence, agreed time cadence), so
    // every participant joins the gather.
    if (driver.checkpoint_due(it, time_due)) {
      const std::span<const double> full = collective.gather(x);
      if (root) driver.write_checkpoint(it, out, full, it);
    }
  }

  // A non-finite exit leaves the garbage iterate in place for post-mortem
  // inspection but skips the orientation fix (flipping NaNs is meaningless).
  if (out.failure != SolverFailure::none) return out;

  // Perron orientation: the dominant eigenvector is nonnegative; flip if the
  // iteration settled on the negative representative, and 1-normalise.  The
  // flip does not change the 1-norm, so both sums travel in one allreduce,
  // and -(x / norm) is x * (-1 / norm) exactly.
  const transforms::TreeSums f =
      tree_sums(fan, [&sv, xp](std::size_t begin, std::size_t end) {
        return transforms::TreeSums{sv.tree_sum(xp + begin, end - begin),
                                    sv.tree_abs_sum(xp + begin, end - begin)};
      });
  double final_sums[2] = {f.first, f.second};
  collective.allreduce(final_sums);
  require(final_sums[1] > 0.0, "power_iteration: zero eigenvector");
  const double scale = (final_sums[0] < 0.0 ? -1.0 : 1.0) / final_sums[1];
  fan.run([xp, scale](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) xp[i] *= scale;
  });
  return out;
}

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
  OperatorCollective collective(op);
  return run_power_loop(collective, std::move(trace),
                        IterationDriver(options, io::SolverKind::power, n), options,
                        options.shift);
}

}  // namespace detail

PowerResult resume_power_iteration(const core::LinearOperator& op,
                                   const io::SolverCheckpoint& checkpoint,
                                   const PowerOptions& options) {
  const std::size_t n = static_cast<std::size_t>(op.dimension());
  require(n > 0, "resume_power_iteration: empty operator");
  require(checkpoint.eigenvector.size() == n,
          "resume_power_iteration: checkpoint dimension does not match operator");

  IterationDriver driver(options, io::SolverKind::power, n);
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
  OperatorCollective collective(op);
  return run_power_loop(collective, std::move(trace), std::move(driver), options,
                        options.shift);
}

}  // namespace qs::solvers
