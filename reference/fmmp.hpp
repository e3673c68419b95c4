// ReferenceFmmp — the paper's Fmmp spelled out with its reference
// algorithms, an oracle that shares no code with the banded production
// kernel.
//
// W x = D_post Q D_pre x runs as three separate steps:
//
//   1. scale by the formulation's pre-diagonal (F, F^{1/2} or none);
//   2. Q through Algorithm 1 — transforms::apply_butterfly in the chosen
//      level order for 2x2 kinds, transforms::apply_kronecker for the
//      grouped kind — or, given an engine, through Algorithm 2
//      (apply_butterfly_per_level / apply_kronecker_per_group), with both
//      scalings dispatched on the engine too;
//   3. scale by the post-diagonal.
//
// Tests pin core::FmmpOperator against it bit for bit; benches time it as
// the paper's serial (Algorithm 1) and per-level (Algorithm 2) baselines.
#pragma once

#include <cmath>
#include <span>
#include <string_view>
#include <vector>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/operators.hpp"
#include "parallel/engine.hpp"
#include "reference/butterfly.hpp"
#include "reference/kronecker.hpp"
#include "support/contracts.hpp"

namespace qs::reference {

class ReferenceFmmp final : public core::LinearOperator {
 public:
  /// `landscape`, and `engine` when non-null, must outlive the operator.
  /// A null engine runs Algorithm 1 in `order`; an engine runs Algorithm 2,
  /// whose levels always ascend.
  ReferenceFmmp(core::MutationModel model, const core::Landscape& landscape,
                core::Formulation formulation = core::Formulation::right,
                const parallel::Engine* engine = nullptr,
                transforms::LevelOrder order = transforms::LevelOrder::ascending)
      : model_(std::move(model)),
        landscape_(&landscape),
        formulation_(formulation),
        engine_(engine),
        order_(order) {
    require(model_.dimension() == landscape.dimension(),
            "ReferenceFmmp: mutation model and landscape dimensions differ");
    require(engine == nullptr || order == transforms::LevelOrder::ascending,
            "ReferenceFmmp: Algorithm 2 has no level-order choice");
    if (formulation_ == core::Formulation::symmetric) {
      sqrt_f_.resize(landscape.dimension());
      const auto f = landscape.values();
      for (std::size_t i = 0; i < sqrt_f_.size(); ++i) sqrt_f_[i] = std::sqrt(f[i]);
    }
  }

  seq_t dimension() const override { return model_.dimension(); }
  std::string_view name() const override { return "ReferenceFmmp"; }

  void apply(std::span<const double> x, std::span<double> y) const override {
    require(x.size() == dimension() && y.size() == dimension(),
            "ReferenceFmmp::apply: dimension mismatch");
    std::span<const double> pre, post;
    switch (formulation_) {
      case core::Formulation::right:
        pre = landscape_->values();
        break;
      case core::Formulation::symmetric:
        pre = sqrt_f_;
        post = sqrt_f_;
        break;
      case core::Formulation::left:
        post = landscape_->values();
        break;
    }

    const parallel::Engine& engine = parallel::engine_or_serial(engine_);
    const double* xp = x.data();
    const double* pp = pre.data();
    const double* qp = post.data();
    double* yp = y.data();
    if (pp != nullptr) {
      engine.dispatch(y.size(), [=](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) yp[i] = pp[i] * xp[i];
      });
    } else {
      engine.dispatch(y.size(), [=](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) yp[i] = xp[i];
      });
    }
    if (engine_ == nullptr) {
      if (model_.kind() == core::MutationKind::grouped) {
        transforms::apply_kronecker(y, model_.group_product());
      } else {
        transforms::apply_butterfly(y, model_.site_factors(), order_);
      }
    } else if (model_.kind() == core::MutationKind::grouped) {
      transforms::apply_kronecker_per_group(y, model_.group_product(), *engine_);
    } else {
      transforms::apply_butterfly_per_level(y, model_.site_factors(), *engine_);
    }
    if (qp != nullptr) {
      engine.dispatch(y.size(), [=](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) yp[i] *= qp[i];
      });
    }
  }

 private:
  core::MutationModel model_;
  const core::Landscape* landscape_;
  core::Formulation formulation_;
  const parallel::Engine* engine_;
  transforms::LevelOrder order_;
  std::vector<double> sqrt_f_;  // the symmetric formulation's F^{1/2}
};

}  // namespace qs::reference
