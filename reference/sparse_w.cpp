#include "reference/sparse_w.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace qs::sparse {

CsrMatrix SparseWOperator::assemble(const core::MutationModel& model,
                                    const core::Landscape& landscape,
                                    unsigned d_max) {
  require(model.kind() == core::MutationKind::uniform,
          "SparseWOperator: truncation requires the uniform mutation model");
  require(model.dimension() == landscape.dimension(),
          "SparseWOperator: model and landscape dimensions differ");
  const unsigned nu = model.nu();
  require(d_max <= nu, "SparseWOperator: d_max must satisfy d_max <= nu");
  require(nu <= 24, "SparseWOperator: assembly limited to nu <= 24");

  // Row i holds columns {i ^ m : popcount(m) <= d_max} with value
  // Q_Gamma(popcount(m)) * f_col.  Collect the mutation patterns once and
  // sort per row by the resulting column index.
  std::vector<seq_t> masks;
  std::vector<double> class_values(d_max + 1);
  for (unsigned k = 0; k <= d_max; ++k) {
    class_values[k] = model.class_value(k);
    FixedWeightMasks(nu, k).for_each([&](seq_t m) { masks.push_back(m); });
  }

  const std::size_t n = static_cast<std::size_t>(model.dimension());
  const auto f = landscape.values();
  CsrBuilder builder(n, n);
  std::vector<std::pair<seq_t, double>> row;
  row.reserve(masks.size());
  for (seq_t i = 0; i < n; ++i) {
    row.clear();
    for (seq_t m : masks) {
      const seq_t col = i ^ m;
      row.emplace_back(col, class_values[hamming_weight(m)] * f[col]);
    }
    std::sort(row.begin(), row.end());
    for (const auto& [col, value] : row) builder.push(col, value);
    builder.finish_row();
  }
  return builder.build();
}

SparseWOperator::SparseWOperator(const core::MutationModel& model,
                                 const core::Landscape& landscape, unsigned d_max,
                                 const parallel::Engine* engine)
    : matrix_(assemble(model, landscape, d_max)),
      engine_(engine),
      name_("SparseW(" + std::to_string(d_max) + ")") {}

void SparseWOperator::apply(std::span<const double> x, std::span<double> y) const {
  if (engine_ != nullptr) {
    matrix_.multiply(x, y, *engine_);
  } else {
    matrix_.multiply(x, y);
  }
}

}  // namespace qs::sparse
