#include "reference/smvp.hpp"

#include "support/contracts.hpp"

namespace qs::core {

SmvpOperator::SmvpOperator(const MutationModel& model, const Landscape& landscape,
                           Formulation formulation, const parallel::Engine* engine)
    : w_(build_w_dense(model, landscape, formulation)), engine_(engine) {}

void SmvpOperator::apply(std::span<const double> x, std::span<double> y) const {
  const std::size_t n = w_.rows();
  require(x.size() == n && y.size() == n, "SmvpOperator::apply: dimension mismatch");
  require(x.data() != y.data(), "SmvpOperator::apply: x and y must not alias");
  if (engine_ == nullptr) {
    w_.multiply(x, y);
    return;
  }
  const double* in = x.data();
  double* out = y.data();
  const linalg::DenseMatrix& w = w_;
  engine_->dispatch(n, [&w, in, out, n](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto row = w.row(i);
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += row[j] * in[j];
      out[i] = acc;
    }
  });
}

}  // namespace qs::core
