#include "reference/xmvp.hpp"

#include <cmath>

#include "linalg/vector_ops.hpp"
#include "support/contracts.hpp"

namespace qs::core {

XmvpOperator::XmvpOperator(MutationModel model, const Landscape& landscape,
                           unsigned d_max, Formulation formulation,
                           const parallel::Engine* engine)
    : model_(std::move(model)),
      landscape_(&landscape),
      d_max_(d_max),
      formulation_(formulation),
      engine_(engine) {
  require(model_.kind() == MutationKind::uniform,
          "XmvpOperator: sparsification requires the uniform mutation model");
  require(model_.dimension() == landscape.dimension(),
          "XmvpOperator: mutation model and landscape dimensions differ");
  require(d_max_ <= model_.nu(), "XmvpOperator: d_max must satisfy d_max <= nu");
  name_ = "Xmvp(" + std::to_string(d_max_) + ")";

  // Precompute every mutation pattern within the truncation radius together
  // with its class probability Q_Gamma(k) = p^k (1-p)^(nu-k).
  const unsigned nu = model_.nu();
  for (unsigned k = 0; k <= d_max_; ++k) {
    const double q_k = model_.class_value(k);
    FixedWeightMasks(nu, k).for_each([&](seq_t m) {
      masks_.push_back(m);
      coefficients_.push_back(q_k);
    });
  }

  if (formulation_ == Formulation::symmetric) {
    sqrt_f_.resize(landscape.dimension());
    const auto f = landscape.values();
    for (std::size_t i = 0; i < sqrt_f_.size(); ++i) sqrt_f_[i] = std::sqrt(f[i]);
  }
}

void XmvpOperator::apply(std::span<const double> x, std::span<double> y) const {
  const std::size_t n = static_cast<std::size_t>(dimension());
  require(x.size() == n && y.size() == n, "XmvpOperator::apply: dimension mismatch");
  require(x.data() != y.data(), "XmvpOperator::apply: x and y must not alias");

  // u = pre-scaled input, matching FmmpOperator's formulation handling.
  scratch_.resize(n);
  const auto f = landscape_->values();
  switch (formulation_) {
    case Formulation::right:
      for (std::size_t i = 0; i < n; ++i) scratch_[i] = f[i] * x[i];
      break;
    case Formulation::symmetric:
      for (std::size_t i = 0; i < n; ++i) scratch_[i] = sqrt_f_[i] * x[i];
      break;
    case Formulation::left:
      linalg::copy(x, std::span<double>(scratch_));
      break;
  }

  const double* u = scratch_.data();
  const seq_t* masks = masks_.data();
  const double* coeff = coefficients_.data();
  const std::size_t pattern_count = masks_.size();

  if (engine_ != nullptr) {
    // Row-parallel: each work item accumulates one output entry over all
    // mutation patterns (the XOR gather of [10]).
    double* out = y.data();
    engine_->dispatch(n, [u, masks, coeff, pattern_count, out](std::size_t begin,
                                                               std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        double acc = 0.0;
        for (std::size_t t = 0; t < pattern_count; ++t) {
          acc += coeff[t] * u[i ^ static_cast<std::size_t>(masks[t])];
        }
        out[i] = acc;
      }
    });
  } else {
    // Serial pattern-major order: for each mutation pattern, stream over all
    // rows (better locality on the output than row-major gathering).
    for (std::size_t i = 0; i < n; ++i) y[i] = coeff[0] * u[i];  // mask 0
    for (std::size_t t = 1; t < pattern_count; ++t) {
      const std::size_t m = static_cast<std::size_t>(masks[t]);
      const double c = coeff[t];
      for (std::size_t i = 0; i < n; ++i) y[i] += c * u[i ^ m];
    }
  }

  // Post-scaling.
  switch (formulation_) {
    case Formulation::right:
      break;
    case Formulation::symmetric:
      for (std::size_t i = 0; i < n; ++i) y[i] *= sqrt_f_[i];
      break;
    case Formulation::left:
      for (std::size_t i = 0; i < n; ++i) y[i] *= f[i];
      break;
  }
}

}  // namespace qs::core
