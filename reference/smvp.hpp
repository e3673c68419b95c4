// Smvp — the standard dense matrix vector product baseline.
//
// The Theta(N^2) reference every speedup in the paper is measured against:
// the full matrix W is materialised and multiplied row by row.  Restricted
// to small chain lengths by memory; beyond that, the paper (and our Figure 4
// bench) extrapolates its cost.
#pragma once

#include "core/operators.hpp"
#include "linalg/dense_matrix.hpp"
#include "parallel/engine.hpp"
#include "reference/explicit_q.hpp"

namespace qs::core {

/// Dense product with an explicitly stored W.
class SmvpOperator final : public LinearOperator {
 public:
  /// Materialises W = Q*F (or the chosen formulation). Requires
  /// nu <= kMaxDenseChainLength.  `engine`, when non-null, parallelises over
  /// output rows and must outlive the operator.
  SmvpOperator(const MutationModel& model, const Landscape& landscape,
               Formulation formulation = Formulation::right,
               const parallel::Engine* engine = nullptr);

  seq_t dimension() const override { return w_.rows(); }
  void apply(std::span<const double> x, std::span<double> y) const override;
  std::string_view name() const override { return "Smvp"; }

  const linalg::DenseMatrix& matrix() const { return w_; }

 private:
  linalg::DenseMatrix w_;
  const parallel::Engine* engine_;
};

}  // namespace qs::core
