// Materialised truncated W = Q F in CSR form.
//
// The explicit counterpart of core::XmvpOperator: both evaluate the
// Hamming-truncated product y_i = sum_{d_H(i,j) <= d} Q_ij f_j x_j, but
// this operator assembles the matrix once (Theta(N * sum_k C(nu,k)) memory)
// and then streams branch-free CSR rows, while Xmvp recomputes the XOR
// patterns every product at Theta(N) memory.  The bench
// `ablation_sparse_storage` quantifies the trade — the memory wall is
// exactly why the paper's line of work moved to implicit products.
#pragma once

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "core/operators.hpp"
#include "parallel/engine.hpp"
#include "reference/csr.hpp"

namespace qs::sparse {

/// CSR-materialised truncated W (right formulation).
class SparseWOperator final : public core::LinearOperator {
 public:
  /// Assembles the truncated matrix. Requires a uniform mutation model,
  /// d_max <= nu, and nu <= 24 (assembly cost guard; memory explodes far
  /// earlier in practice).  `engine`, when non-null, parallelises the row
  /// sweeps and must outlive the operator.
  SparseWOperator(const core::MutationModel& model, const core::Landscape& landscape,
                  unsigned d_max, const parallel::Engine* engine = nullptr);

  seq_t dimension() const override { return matrix_.rows(); }
  void apply(std::span<const double> x, std::span<double> y) const override;
  std::string_view name() const override { return name_; }

  const CsrMatrix& matrix() const { return matrix_; }

 private:
  static CsrMatrix assemble(const core::MutationModel& model,
                            const core::Landscape& landscape, unsigned d_max);

  CsrMatrix matrix_;
  const parallel::Engine* engine_;
  std::string name_;
};

}  // namespace qs::sparse
