#include "reference/explicit_q.hpp"

#include <cmath>

#include "support/contracts.hpp"

namespace qs::core {

linalg::DenseMatrix build_q_dense(const MutationModel& model) {
  require(model.nu() <= kMaxDenseChainLength,
          "build_q_dense: chain length too large for dense assembly");
  const std::size_t n = static_cast<std::size_t>(model.dimension());
  linalg::DenseMatrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      q(i, j) = model.entry(i, j);
    }
  }
  return q;
}

linalg::DenseMatrix build_w_dense(const MutationModel& model,
                                  const Landscape& landscape,
                                  Formulation formulation) {
  require(model.dimension() == landscape.dimension(),
          "build_w_dense: model and landscape dimensions differ");
  linalg::DenseMatrix w = build_q_dense(model);
  const std::size_t n = w.rows();
  const auto f = landscape.values();
  switch (formulation) {
    case Formulation::right:  // Q F: scale columns by f_j
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) w(i, j) *= f[j];
      }
      break;
    case Formulation::symmetric: {  // F^{1/2} Q F^{1/2}
      require(model.symmetric(),
              "build_w_dense: symmetric formulation requires a symmetric model");
      for (std::size_t i = 0; i < n; ++i) {
        const double si = std::sqrt(f[i]);
        for (std::size_t j = 0; j < n; ++j) w(i, j) *= si * std::sqrt(f[j]);
      }
      break;
    }
    case Formulation::left:  // F Q: scale rows by f_i
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) w(i, j) *= f[i];
      }
      break;
  }
  return w;
}

}  // namespace qs::core
