#include "reference/csr.hpp"

#include "support/contracts.hpp"

namespace qs::sparse {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> row_offsets,
                     std::vector<std::size_t> column_indices,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      column_indices_(std::move(column_indices)),
      values_(std::move(values)) {
  require(row_offsets_.size() == rows_ + 1, "CsrMatrix: row_offsets size mismatch");
  require(row_offsets_.front() == 0, "CsrMatrix: row_offsets must start at 0");
  require(row_offsets_.back() == values_.size(),
          "CsrMatrix: row_offsets must end at nnz");
  require(column_indices_.size() == values_.size(),
          "CsrMatrix: indices/values size mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    require(row_offsets_[r] <= row_offsets_[r + 1],
            "CsrMatrix: row offsets must be nondecreasing");
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      require(column_indices_[k] < cols_, "CsrMatrix: column index out of range");
      if (k > row_offsets_[r]) {
        require(column_indices_[k - 1] < column_indices_[k],
                "CsrMatrix: columns must be strictly ascending within a row");
      }
    }
  }
}

std::size_t CsrMatrix::memory_bytes() const {
  return row_offsets_.size() * sizeof(std::size_t) +
         column_indices_.size() * sizeof(std::size_t) +
         values_.size() * sizeof(double);
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  require(x.size() == cols_ && y.size() == rows_, "CsrMatrix::multiply: dimensions");
  require(x.data() != y.data(), "CsrMatrix::multiply: x and y must not alias");
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      acc += values_[k] * x[column_indices_[k]];
    }
    y[r] = acc;
  }
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y,
                         const parallel::Engine& engine) const {
  require(x.size() == cols_ && y.size() == rows_, "CsrMatrix::multiply: dimensions");
  require(x.data() != y.data(), "CsrMatrix::multiply: x and y must not alias");
  const double* xp = x.data();
  double* yp = y.data();
  const std::size_t* offsets = row_offsets_.data();
  const std::size_t* columns = column_indices_.data();
  const double* vals = values_.data();
  engine.dispatch(rows_, [=](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      double acc = 0.0;
      for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
        acc += vals[k] * xp[columns[k]];
      }
      yp[r] = acc;
    }
  });
}

linalg::DenseMatrix CsrMatrix::to_dense() const {
  require(rows_ <= 4096 && cols_ <= 4096, "to_dense: matrix too large");
  linalg::DenseMatrix dense(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      dense(r, column_indices_[k]) = values_[k];
    }
  }
  return dense;
}

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {
  require(rows >= 1 && cols >= 1, "CsrBuilder: empty shape");
  row_offsets_.reserve(rows + 1);
  row_offsets_.push_back(0);
}

void CsrBuilder::push(std::size_t column, double value) {
  require(current_row_ < rows_, "CsrBuilder::push: all rows already finished");
  require(column < cols_, "CsrBuilder::push: column out of range");
  require(!row_has_entries_ || column > last_column_in_row_,
          "CsrBuilder::push: columns must be strictly ascending within a row");
  last_column_in_row_ = column;
  row_has_entries_ = true;
  if (value != 0.0) {
    column_indices_.push_back(column);
    values_.push_back(value);
  }
}

void CsrBuilder::finish_row() {
  require(current_row_ < rows_, "CsrBuilder::finish_row: all rows already finished");
  ++current_row_;
  row_has_entries_ = false;
  row_offsets_.push_back(values_.size());
}

CsrMatrix CsrBuilder::build() {
  require(current_row_ == rows_, "CsrBuilder::build: not all rows finished");
  return CsrMatrix(rows_, cols_, std::move(row_offsets_),
                   std::move(column_indices_), std::move(values_));
}

CsrMatrix csr_from_dense(const linalg::DenseMatrix& dense, double threshold) {
  CsrBuilder builder(dense.rows(), dense.cols());
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      const double v = dense(r, c);
      if (std::abs(v) > threshold) builder.push(c, v);
    }
    builder.finish_row();
  }
  return builder.build();
}

}  // namespace qs::sparse
