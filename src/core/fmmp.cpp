#include "core/fmmp.hpp"

#include <cmath>
#include <cstring>

#include "support/contracts.hpp"
#include "transforms/panel_butterfly.hpp"

namespace qs::core {

FmmpOperator::FmmpOperator(MutationModel model, const Landscape& landscape,
                           Formulation formulation, const parallel::Engine* engine,
                           transforms::BlockedPlan plan)
    : model_(std::move(model)),
      landscape_(&landscape),
      formulation_(formulation),
      engine_(engine),
      plan_(plan) {
  require(model_.dimension() == landscape.dimension(),
          "FmmpOperator: mutation model and landscape dimensions differ");
  if (formulation_ == Formulation::symmetric) {
    require(model_.symmetric(),
            "FmmpOperator: symmetric formulation requires a symmetric mutation model");
    sqrt_f_.resize(landscape.dimension());
    const auto f = landscape.values();
    for (std::size_t i = 0; i < sqrt_f_.size(); ++i) sqrt_f_[i] = std::sqrt(f[i]);
  }
}

void FmmpOperator::apply(std::span<const double> x, std::span<double> y) const {
  require(x.size() == dimension() && y.size() == dimension(),
          "FmmpOperator::apply: dimension mismatch");
  require(x.data() != y.data(), "FmmpOperator::apply: x and y must not alias");
  apply_panel(x, y, 1);
}

bool FmmpOperator::apply_step(std::span<const double> x, std::span<double> y,
                              transforms::BandStep& step) const {
  if (model_.kind() == MutationKind::grouped) return false;
  require(x.size() == dimension() && y.size() == dimension(),
          "FmmpOperator::apply_step: dimension mismatch");
  require(x.data() != y.data(), "FmmpOperator::apply_step: x and y must not alias");
  const auto [pre, post] = scalings();
  transforms::apply_blocked_butterfly_fused(x, y, model_.site_factors(), pre, post,
                                            parallel::engine_or_serial(engine_), plan_,
                                            &step);
  return true;
}

std::pair<std::span<const double>, std::span<const double>> FmmpOperator::scalings()
    const {
  // Diagonal scalings of the chosen formulation:
  //   right      W x = Q (F x)            pre = F
  //   symmetric  W x = F^{1/2} Q F^{1/2}  pre = post = F^{1/2}
  //   left       W x = F (Q x)            post = F
  switch (formulation_) {
    case Formulation::right:
      return {landscape_->values(), {}};
    case Formulation::symmetric:
      return {sqrt_f_, sqrt_f_};
    case Formulation::left:
      return {{}, landscape_->values()};
  }
  return {};
}

void FmmpOperator::apply_panel(std::span<const double> x, std::span<double> y,
                               std::size_t m) const {
  require(m >= 1, "FmmpOperator::apply_panel: panel width m must be >= 1");
  require(x.size() == dimension() * m && y.size() == x.size(),
          "FmmpOperator::apply_panel: dimension mismatch");

  const auto [pre, post] = scalings();
  const parallel::Engine& engine = parallel::engine_or_serial(engine_);

  if (model_.kind() != MutationKind::grouped) {
    // Banded kernel: the scalings ride inside the first/last band.  m == 1
    // runs the single-vector kernel; wider panels the panel driver.
    transforms::apply_blocked_panel_butterfly_fused(x, y, m,
                                                    model_.site_factors(), pre,
                                                    post, engine, plan_);
    return;
  }

  // Grouped kind: broadcast scaling sweeps around the banded Kronecker panel
  // kernel (the dense-block contraction has no fused-scaling form).
  const double* xp = x.data();
  double* yp = y.data();
  const std::size_t n = dimension();
  if (!pre.empty()) {
    const double* pp = pre.data();
    engine.dispatch(n, [=](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const double s = pp[i];
        for (std::size_t j = 0; j < m; ++j) yp[i * m + j] = s * xp[i * m + j];
      }
    });
  } else if (xp != yp) {
    engine.dispatch(n, [=](std::size_t begin, std::size_t end) {
      std::memcpy(yp + begin * m, xp + begin * m,
                  (end - begin) * m * sizeof(double));
    });
  }
  transforms::apply_blocked_kronecker(y, m, model_.group_product(), engine,
                                      plan_);
  if (!post.empty()) {
    const double* qp = post.data();
    engine.dispatch(n, [=](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const double s = qp[i];
        for (std::size_t j = 0; j < m; ++j) yp[i * m + j] *= s;
      }
    });
  }
}

}  // namespace qs::core
