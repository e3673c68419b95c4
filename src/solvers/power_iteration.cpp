#include "solvers/power_iteration.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/workspace.hpp"
#include "linalg/tree_reduce.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "parallel/engine.hpp"
#include "parallel/row_blocks.hpp"
#include "support/contracts.hpp"
#include "transforms/blocked_butterfly.hpp"
#include "transforms/sv_microkernel.hpp"
#include "transforms/sv_tree_blocks.hpp"

namespace qs::solvers {
namespace {

/// The table every reduction of the power iteration runs on.  All tiers
/// return the same bits (the tree order of linalg::tree_reduce); the widest
/// is just the fastest.
const transforms::SvKernels& reduction_kernels() {
  return transforms::resolve_sv_kernels(transforms::SvKernel::automatic);
}

/// x <- x / ||x||_1 with the tree-ordered 1-norm: multiply by the
/// reciprocal, exactly as the power loop normalises its blocks.
void normalize1_tree(std::span<double> x, const char* what) {
  const double norm = reduction_kernels().tree_abs_sum(x.data(), x.size());
  require(norm > 0.0, what);
  linalg::scale(x, 1.0 / norm);
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
  bool apply_step(std::span<const double> x, std::span<double> y,
                  transforms::BandStep& step) override {
    return op_.apply_step(x, y, step);
  }
  void allreduce(std::span<double>) override {}
  std::span<const double> gather(std::span<const double> x) override { return x; }
  bool is_root() const override { return true; }
  unsigned participants() const override { return 1; }
  std::optional<core::FitnessRange> fitness_range() const override {
    return op_.fitness_range();
  }

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

/// K, the most products an iterate may go unnormalised (0: no bound).  Q is
/// column-stochastic, so a product scales a nonnegative column's 1-norm by
/// a factor within [f_min - mu, f_max - mu]; K products keep it within
/// 2^+-64 of its last normalisation.
unsigned stretch_bound(const std::optional<core::FitnessRange>& range, double mu) {
  if (!range.has_value() || !(range->min - mu > 0.0)) return 1;
  const double spread =
      std::log2(std::max(range->max - mu, 1.0 / (range->min - mu)));
  const double bound = std::floor(64.0 / spread);
  if (!(bound < static_cast<double>(std::numeric_limits<unsigned>::max()))) return 0;
  return std::max(1u, static_cast<unsigned>(bound));
}

constexpr std::uint32_t kShiftCycle = 8;
constexpr std::uint32_t kCyclingPhase = 1;

/// The Chebyshev shift schedule (docs/THEORY.md section 5).  With the
/// spectrum real and in [mu, lambda_0], kShiftCycle products whose shifts
/// are the roots of the degree-kShiftCycle Chebyshev polynomial on
/// [mu, upper] damp every eigencomponent in that interval by at least
/// 1 / T_8(sigma) relative to lambda_0, sigma = (lambda_0 - c) / e for the
/// interval's centre c and half-width e; the fixed shift damps lambda_1's
/// by ((lambda_1 - mu) / (lambda_0 - mu))^8.  Each product still takes one
/// scalar shift in passes 1 and 2, so the iteration keeps its two vectors.
///
/// Estimating: the fixed shift, until two consecutive residual ratios
/// agree to within kAgreement below 1; that ratio rho-hat sets upper =
/// mu + rho-hat (lambda-hat_0 - mu), below the Rayleigh quotient
/// lambda-hat_0.  Cycling: the product at cycle slot p takes root p.  The
/// check of each cycle's first product measures the iterate the previous
/// cycle made.  When that residual is not below the best such residual,
/// the schedule falls back to estimating from the next product on (the
/// check's own product has already taken root 0).  When it fell by less
/// than the interval promises, widen() raises upper to where the slowest
/// component must lie.  A shift in [mu, lambda_1] damps lambda_1's
/// component at least as much as mu does, so a low upper costs speed only;
/// so does a high one while it stays below lambda_0, and the fallback
/// catches the rest.
class ShiftSchedule {
 public:
  /// `state` is the checkpointed schedule; an inactive schedule (no
  /// shift, checks sparser than every product, m > 1) starts cold, so
  /// its checkpoints carry no stale cycle.
  ShiftSchedule(double mu, bool active, const io::ShiftScheduleState& state)
      : mu_(mu), active_(active), state_(active ? state : io::ShiftScheduleState{}) {
    require(valid_shift_schedule(state), "power_iteration: corrupt shift schedule state");
    if (cycling()) set_roots();
  }

  /// The shift of the next product.
  double shift() const { return cycling() ? roots_[state_.position] : mu_; }

  /// Advances on a residual check that let the solve proceed; `lambda` is
  /// its Rayleigh quotient.
  void observe(unsigned iteration, double residual, double lambda) {
    if (!active_) return;
    io::ShiftScheduleState& s = state_;
    if (cycling()) {
      if (s.position == 0) {
        if (!(residual < s.best)) {
          QS_TRACE_INSTANT_ARG("solver.shift_schedule_fallback", solver, residual,
                               iteration);
          // The report keeps the abandoned interval until a new one engages.
          s = io::ShiftScheduleState{.last_residual = residual,
                                     .decay = s.decay,
                                     .upper = s.upper,
                                     .engaged_at = s.engaged_at,
                                     .fallbacks = s.fallbacks + 1};
          return;
        }
        if (std::isfinite(s.best)) widen(residual / s.best, lambda);
        s.best = residual;
      }
      s.position = (s.position + 1) % kShiftCycle;
      return;
    }
    if (s.last_residual > 0.0) {
      const double ratio = residual / s.last_residual;
      if (s.last_ratio > 0.0 && ratio < 1.0 &&
          std::abs(ratio - s.last_ratio) <= kAgreement * ratio && lambda > mu_) {
        QS_TRACE_INSTANT_ARG("solver.shift_schedule", solver, ratio, iteration);
        s.phase = kCyclingPhase;
        s.position = 0;
        s.last_ratio = 0.0;
        s.decay = ratio;
        s.upper = mu_ + ratio * (lambda - mu_);
        s.best = std::numeric_limits<double>::infinity();
        s.engaged_at = iteration;
        set_roots();
        return;
      }
      s.last_ratio = ratio;
    }
    s.last_residual = residual;
  }

  const io::ShiftScheduleState& state() const { return state_; }

  ShiftScheduleReport report() const {
    ShiftScheduleReport r;
    if (state_.engaged_at == 0) return r;
    r.engaged_at = static_cast<unsigned>(state_.engaged_at);
    r.decay = state_.decay;
    r.lower = mu_;
    r.upper = state_.upper;
    r.fallbacks = static_cast<unsigned>(state_.fallbacks);
    return r;
  }

 private:
  /// Two consecutive ratios agree when they differ by at most this share.
  static constexpr double kAgreement = 0.05;

  bool cycling() const { return active_ && state_.phase == kCyclingPhase; }

  /// A cycle that cut the residual by `reduction` only: when that is less
  /// than the interval promises its members, 1 / T_8(sigma), the slowest
  /// eigencomponent lies above `upper`, at the t where T_8(t) / T_8(sigma)
  /// equals the reduction.  Raising `upper` to it keeps the interval below
  /// lambda_0 (t < sigma while the residual falls).
  void widen(double reduction, double lambda) {
    const double c = 0.5 * (state_.upper + mu_);
    const double e = 0.5 * (state_.upper - mu_);
    const double sigma = (lambda - c) / e;
    if (!(sigma > 1.0)) return;
    const double damping =
        reduction * std::cosh(static_cast<double>(kShiftCycle) * std::acosh(sigma));
    if (!(damping > 1.0)) return;
    state_.upper = c + e * std::cosh(std::acosh(damping) / static_cast<double>(kShiftCycle));
    set_roots();
  }

  /// The roots c + e cos((2j - 1) pi / 16) on [mu, upper], alternating
  /// high/low from the ends inwards: each low root undoes most of the
  /// growth the high root before it gave the components near mu.  (Of the
  /// four outside-in/inside-out, high/low-first orders this one needed the
  /// fewest products on the nu = 16-20 threshold and nu = 18 random solves.)
  void set_roots() {
    static constexpr double kCos[kShiftCycle / 2] = {
        0.98078528040323044913,  // cos(pi/16)
        0.83146961230254523708,  // cos(3pi/16)
        0.55557023301960222474,  // cos(5pi/16)
        0.19509032201612826785,  // cos(7pi/16)
    };
    const double c = 0.5 * (state_.upper + mu_);
    const double e = 0.5 * (state_.upper - mu_);
    for (std::uint32_t j = 0; j < kShiftCycle / 2; ++j) {
      roots_[2 * j] = c + e * kCos[j];
      roots_[2 * j + 1] = c - e * kCos[j];
    }
  }

  double mu_;
  bool active_;
  io::ShiftScheduleState state_;
  std::array<double, kShiftCycle> roots_{};
};

/// The loop's passes over `rows` rows of m interleaved columns, each
/// formed on parallel::RowBlocks so every engine gives the one-block bits.
/// One column and the study width m = 8 run the SvKernels reductions;
/// other widths reduce whole rows (transforms/sv_tree_blocks.hpp) in
/// per-block scratch.  All scratch is allocated here, once per solve.
class Passes {
 public:
  Passes(const parallel::Engine& engine, std::size_t rows, std::size_t m)
      : sv_(reduction_kernels()),
        m_(m),
        blocks_(engine, rows, m, 3 * m,
                m == 1 || m == 8
                    ? 0
                    : std::max({linalg::tree_reduce_rows_scratch(m, rows),
                                linalg::tree_reduce_rows_scratch(2 * m, rows),
                                linalg::tree_reduce_rows_scratch(3 * m, rows)})) {}

  /// Pass 1: out[c] = x.x, out[m + c] = x.y and out[2m + c] = ||y - mu x||_1
  /// of column c.
  void check_sums(const double* x, const double* y, double mu, double* out) {
    const std::size_t m = m_;
    blocks_.sums(3 * m, [&](std::size_t begin, std::size_t end, double* partial) {
      const double* xb = x + begin * m;
      const double* yb = y + begin * m;
      if (m == 1) {
        const transforms::TreeSums t = sv_.tree_check_sums(xb, yb, end - begin, mu);
        partial[0] = t.first;
        partial[1] = t.second;
        partial[2] = t.third;
      } else if (m == 8) {
        sv_.panel8_check_sums(xb, yb, end - begin, mu, partial);
      } else {
        transforms::panel_check_sums<0>(xb, yb, end - begin, m, mu, partial,
                                        blocks_.scratch(begin));
      }
    }, out);
  }

  /// Pass 2: out[c] = ||y - lambda_c x||_2^2 of column c, and
  /// y <- (y - mu x) inv_c in the same sweep.
  void residual_update(const double* x, double* y, const double* lambda,
                       double mu, const double* inv, double* out) {
    const std::size_t m = m_;
    blocks_.sums(m, [&](std::size_t begin, std::size_t end, double* partial) {
      const double* xb = x + begin * m;
      double* yb = y + begin * m;
      if (m == 1) {
        partial[0] = residual_update_descending(xb, yb, end - begin, lambda[0], mu,
                                                inv[0]);
      } else if (m == 8) {
        sv_.panel8_residual_update(xb, yb, end - begin, lambda, mu, inv, partial);
      } else {
        transforms::panel_residual_update<0>(xb, yb, end - begin, m, lambda, mu,
                                             inv, partial, blocks_.scratch(begin));
      }
    }, out);
  }

  /// One column's pass 2 over [0, n), n a power of two, in aligned
  /// sub-blocks taken from the last to the first and combined by
  /// tree_reduce: complete subtrees, so the bits of one sweep.  The product
  /// before the pass swept its rows in ascending order, so their later
  /// parts are the likeliest still in cache; the next product's first band
  /// starts at the head, which this order writes last.  (At nu = 18, on a
  /// Xeon with 2 MiB of L2 per core, an iteration ran ~4% faster than with
  /// one ascending sweep.)
  double residual_update_descending(const double* x, double* y, std::size_t n,
                                    double lambda, double mu, double inv) const {
    constexpr std::size_t kMaxSubBlocks = 64;
    constexpr std::size_t kMinSubBlock = std::size_t{1} << 12;
    if (n < 2 * kMinSubBlock || !std::has_single_bit(n)) {
      return sv_.tree_residual_update(x, y, n, lambda, mu, inv);
    }
    const std::size_t sub = std::max(kMinSubBlock, n / kMaxSubBlocks);
    const std::size_t count = n / sub;
    std::array<double, kMaxSubBlocks> partials{};
    for (std::size_t b = count; b-- > 0;) {
      partials[b] =
          sv_.tree_residual_update(x + b * sub, y + b * sub, sub, lambda, mu, inv);
    }
    return linalg::tree_reduce(std::size_t{0}, count,
                               [&partials](std::size_t b) { return partials[b]; });
  }

  /// out[c] = sum of column c's positive entries, out[m + c] = sum of its
  /// negative entries.
  void sign_sums(const double* x, double* out) {
    const std::size_t m = m_;
    blocks_.sums(2 * m, [&](std::size_t begin, std::size_t end, double* partial) {
      const double* xb = x + begin * m;
      if (m == 1) {
        const transforms::TreeSums t = sv_.tree_sign_sums(xb, end - begin);
        partial[0] = t.first;
        partial[1] = t.second;
      } else if (m == 8) {
        sv_.panel8_sign_sums(xb, end - begin, partial);
      } else {
        transforms::panel_sign_sums<0>(xb, end - begin, m, partial,
                                       blocks_.scratch(begin));
      }
    }, out);
  }

  /// y <- y - mu x, element-wise.
  void shift(const double* x, double* y, double mu) {
    const std::size_t m = m_;
    blocks_.run([x, y, mu, m](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin * m; i < end * m; ++i) y[i] -= mu * x[i];
    });
  }

  /// out <- x scale_c per column, with `clamp` a negative product replaced
  /// by +0 (out may be x).
  void scale(const double* x, const double* scale, double* out, bool clamp) {
    const std::size_t m = m_;
    blocks_.run([x, scale, out, m, clamp](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t c = 0; c < m; ++c) {
          const double v = x[i * m + c] * scale[c];
          out[i * m + c] = clamp && v < 0.0 ? 0.0 : v;
        }
      }
    });
  }

 private:
  const transforms::SvKernels& sv_;
  std::size_t m_;
  parallel::RowBlocks blocks_;
};

/// Pass 1 of a one-column check inside the check product: the product's
/// last band hands over each chunk of y as it finishes it, and the chunk's
/// {x.x, x.y, ||y - mu x||_1} go to that chunk's slot.  The chunks are
/// aligned power-of-two ranges, so tree_reduce over the slots gives the
/// one-block sums of Passes::check_sums bit for bit.  The slots grow in the
/// first product's layout call and are reused after that.
class ProductCheckSums final : public transforms::BandStep {
 public:
  ProductCheckSums() : sv_(reduction_kernels()) {}

  /// The next product's x, y and shift.
  void arm(const double* x, const double* y, double mu) {
    x_ = x;
    y_ = y;
    mu_ = mu;
  }

  void layout(std::size_t ranges, std::size_t length) override {
    partials_.resize(3 * ranges);
    length_log2_ = static_cast<unsigned>(std::countr_zero(length));
  }

  void epilogue(std::size_t begin, std::size_t end) override {
    const transforms::TreeSums t = sv_.tree_check_sums(x_ + begin, y_ + begin,
                                                       end - begin, mu_);
    double* slot = partials_.data() + 3 * (begin >> length_log2_);
    slot[0] = t.first;
    slot[1] = t.second;
    slot[2] = t.third;
  }

  /// out[0..3) = the product's x.x, x.y and ||y - mu x||_1.
  void sums(double* out) const {
    const double* p = partials_.data();
    for (std::size_t k = 0; k < 3; ++k) {
      out[k] = linalg::tree_reduce(std::size_t{0}, partials_.size() / 3,
                                   [p, k](std::size_t c) { return p[3 * c + k]; });
    }
  }

 private:
  const transforms::SvKernels& sv_;
  const double* x_ = nullptr;
  const double* y_ = nullptr;
  double mu_ = 0.0;
  unsigned length_log2_ = 0;
  std::vector<double> partials_;
};

}  // namespace

const char* to_string(CheckPath path) {
  return path == CheckPath::fused ? "fused" : "passes";
}

PowerResult run_power_loop(BlockCollective& collective, IterationTrace trace,
                           IterationDriver driver,
                           const IterationOptions& options, double shift,
                           std::span<double> storage) {
  require(storage.empty() || trace.iterate.empty(),
          "run_power_loop: the start is both in the trace and in storage");
  PowerResult out;
  out.eigenvector = std::move(trace.iterate);
  const std::span<double> home =
      storage.empty() ? std::span<double>(out.eigenvector) : storage;
  const std::size_t m = collective.width();
  const std::size_t size = home.size();
  require(m >= 1 && size % m == 0, "run_power_loop: iterate is not m columns wide");
  Passes passes(parallel::engine_or_serial(options.engine), size / m, m);
  const bool root = collective.is_root();
  const bool sole = collective.participants() == 1;
  const double mu = shift;

  out.eigenvalue = trace.eigenvalue;
  out.residual = trace.residual;
  out.iterations = trace.start_iteration;
  out.column_eigenvalues.assign(m, trace.eigenvalue);
  out.column_residuals.assign(m, trace.residual);

  // The product buffer comes from the shared workspace when one is
  // configured, so repeated solves (sweeps, recovery retries) reuse it.
  // After a check the two buffers trade roles, so the iterate lives in
  // either.
  core::Workspace local_workspace;
  core::Workspace& workspace =
      options.workspace != nullptr ? *options.workspace : local_workspace;
  double* xp = home.data();
  double* yp = workspace.take(core::Workspace::Slot::product, size).data();
  const auto x = [&xp, size] { return std::span<double>(xp, size); };

  // Per-column scratch: pass 1's sums, pass 2's residuals plus the control
  // word, and the Rayleigh quotients and reciprocal norms between them.
  std::vector<double> sums(3 * m), tail(m + 1), lambda(m), inv(m), res(m);

  // Iterations that run the check passes without observing them: every
  // K-th, when K products between scheduled checks could leave the
  // iterate's 1-norm range, and every periodic-checkpoint iteration.
  const unsigned stretch = stretch_bound(collective.fitness_range(), mu);
  const bool forced_renormalisation =
      stretch != 0 && stretch < options.residual_check_every;
  const bool in_place = mu == 0.0 && collective.aliasing();
  // The Chebyshev shift schedule needs mu as a lower bound of a real
  // spectrum, every product's residual, and one column.
  ShiftSchedule schedule(mu, mu > 0.0 && options.residual_check_every == 1 && m == 1,
                         trace.schedule);
  // Pass 1 rides in the check products while the collective carries it;
  // the first product that cannot leaves the solve on the standalone pass.
  ProductCheckSums in_product;
  bool fusable = sole && m == 1;

  for (unsigned it = trace.start_iteration + 1; it <= options.max_iterations; ++it) {
    const bool scheduled = driver.should_check(it, options.max_iterations);
    const bool check = scheduled ||
                       (forced_renormalisation && it % stretch == 0) ||
                       driver.checkpoint_due(it, false);
    if (!scheduled && sole && options.should_stop && options.should_stop()) {
      QS_TRACE_INSTANT_ARG("solver.cancelled", solver, out.residual, it);
      out.failure = SolverFailure::cancelled;
      break;
    }
    QS_TRACE_SPAN_ARG("power.iteration", solver, it);
    const double mu_it = schedule.shift();
    const std::span<double> y(check || !in_place ? yp : xp, size);
    bool summed = false;
    if (check && fusable) {
      in_product.arm(xp, yp, mu_it);
      summed = fusable = collective.apply_step(x(), y, in_product);
    }
    if (!summed) collective.apply(x(), y);
    out.iterations = it;
    if (!check) {
      if (!in_place) {
        if (mu != 0.0) passes.shift(xp, yp, mu);
        std::swap(xp, yp);
      }
      continue;
    }

    // Pass 1: the Rayleigh quotient from the product in hand, and the
    // 1-norm of the shifted product.
    if (summed) {
      out.check_path = CheckPath::fused;
      in_product.sums(sums.data());
    } else {
      passes.check_sums(xp, yp, mu_it, sums.data());
    }
    collective.allreduce(sums);
    for (std::size_t c = 0; c < m; ++c) lambda[c] = sums[m + c] / sums[c];
    // Numerical-health guard: a NaN/Inf iterate makes the Rayleigh
    // quotient or a norm non-finite.  Fail fast with a structured reason
    // instead of spinning max_iterations on garbage.
    if (!driver.guard(lambda, out) || !driver.guard(sums, out)) break;
    for (std::size_t c = 0; c < m; ++c) {
      require(sums[2 * m + c] > 0.0, "power_iteration: iterate collapsed to zero");
      inv[c] = 1.0 / sums[2 * m + c];
    }

    // Pass 2: the residual ||y - lambda x||_2 formed explicitly (the
    // algebraically equivalent sqrt(yy - xy^2/xx) cancels catastrophically:
    // its noise floor is sqrt(eps) ~ 1e-8 in eigenvector error, far above
    // the tolerances this solver targets), and y normalised in place.  The
    // control word rides with the sums: any participant's stop vote cancels
    // everywhere, and the root's clock decides the time cadence.
    passes.residual_update(xp, yp, lambda.data(), mu_it, inv.data(), tail.data());
    double control = 0.0;
    if (scheduled && options.should_stop && options.should_stop()) control += 1.0;
    if (root && driver.checkpoint_time_due()) control += kControlTimeBit;
    tail[m] = control;
    collective.allreduce(tail);
    const bool time_due = tail[m] >= kControlTimeBit;
    if (!driver.guard(std::span<const double>(tail).first(m), out)) break;

    if (scheduled) {
      std::size_t worst = 0;
      for (std::size_t c = 0; c < m; ++c) {
        res[c] = std::sqrt(tail[c]) /
                 std::max(std::abs(lambda[c]) * std::sqrt(sums[c]), 1e-300);
        if (res[c] > res[worst]) worst = c;
      }
      out.column_eigenvalues = lambda;
      out.column_residuals = res;
      out.eigenvalue = lambda[worst];
      out.residual = res[worst];
      const IterationDriver::Verdict verdict = driver.observe(
          it, out.residual, out, std::fmod(tail[m], kControlTimeBit) != 0.0);
      if (verdict != IterationDriver::Verdict::proceed) {
        // A cancelled solve (deadline, disconnect, SIGTERM) flushes its
        // finite pre-update iterate — the result of iteration it-1 — so a
        // restart resumes exactly this aborted iteration.
        if (verdict == IterationDriver::Verdict::cancelled &&
            driver.checkpointing()) {
          const std::span<const double> full = collective.gather(x());
          if (root) {
            driver.write_checkpoint(it - 1, out, full, it - 1, 0.0, schedule.state());
          }
        }
        break;
      }
      schedule.observe(it, out.residual, out.eigenvalue);
    }
    std::swap(xp, yp);

    // Periodic checkpoint, written only after the health guards passed: the
    // last checkpoint on disk is always a finite, resumable state.  The
    // decision is replicated (iteration cadence, agreed time cadence), so
    // every participant joins the gather.
    if (driver.checkpoint_due(it, time_due)) {
      const std::span<const double> full = collective.gather(x());
      if (root) driver.write_checkpoint(it, out, full, it, 0.0, schedule.state());
    }
  }
  out.shift_schedule = schedule.report();
  QS_TRACE_INSTANT_ARG(out.check_path == CheckPath::fused ? "solver.check_path.fused"
                                                          : "solver.check_path.passes",
                       solver, out.residual, out.iterations);

  // A non-finite exit leaves the garbage iterate in place for post-mortem
  // inspection but skips the orientation fix (flipping NaNs is meaningless).
  double* result = home.data();
  if (out.failure == SolverFailure::non_finite) {
    if (xp != result) std::copy(xp, xp + size, result);
    return out;
  }

  // Perron orientation: the dominant eigenvector is nonnegative.  Each
  // column's positive and negative parts are tree-summed in one pass and
  // one allreduce; the larger part is the Perron representative, kept
  // (flipped when negative: -(x / s) is x * (-1 / s) exactly).  In a
  // converged column the entries of the other sign are rounding-sized: a
  // shifted product can leave a few, since W - mu I is no longer
  // nonnegative once a Chebyshev root exceeds one of W's diagonal entries.
  // They become +0 and the column is 1-normalised by the kept part's sum.
  // A solve that did not converge (capped, cancelled, stalled) keeps every
  // entry, since its minority entries need not be rounding-sized, and is
  // normalised by the whole 1-norm.  With no entry of the other sign both
  // divisors are the column's tree 1-norm, so the result is the plain
  // normalisation, bit for bit.
  const bool clamp = out.converged;
  std::vector<double> final_sums(2 * m);
  passes.sign_sums(xp, final_sums.data());
  collective.allreduce(final_sums);
  for (std::size_t c = 0; c < m; ++c) {
    const double positive = final_sums[c];
    const double negative = -final_sums[m + c];
    const bool flip = negative > positive;
    const double kept = flip ? negative : positive;
    const double other = flip ? positive : negative;
    require(kept > 0.0, "power_iteration: zero eigenvector");
    inv[c] = (flip ? -1.0 : 1.0) / (clamp ? kept : kept + other);
    if (clamp) out.dropped_mass = std::max(out.dropped_mass, other / kept);
  }
  passes.scale(xp, inv.data(), result, clamp);
  return out;
}

bool valid_shift_schedule(const io::ShiftScheduleState& state) {
  return state.position < kShiftCycle &&
         (state.phase != kCyclingPhase || std::isfinite(state.upper));
}

std::vector<double> landscape_start(const core::Landscape& landscape) {
  // The norm read off the landscape, then the scaled copy written in one
  // sweep: the bits normalize1_tree gives a copy, without filling the copy
  // first.
  const std::span<const double> f = landscape.values();
  const double norm = reduction_kernels().tree_abs_sum(f.data(), f.size());
  require(norm > 0.0, "landscape_start: landscape has zero 1-norm");
  const double inv = 1.0 / norm;
  std::vector<double> s;
  s.reserve(f.size());
  for (const double v : f) s.push_back(v * inv);
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
