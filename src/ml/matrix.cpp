#include "waldo/ml/matrix.hpp"

#include "waldo/runtime/reuse.hpp"

namespace waldo::ml {

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  Matrix m;
  if (rows.empty()) return m;
  m.rows_ = rows.size();
  m.cols_ = rows.front().size();
  m.data_.reserve(m.rows_ * m.cols_);
  for (const auto& r : rows) {
    if (r.size() != m.cols_) {
      throw std::invalid_argument("ragged rows in Matrix::from_rows");
    }
    m.data_.insert(m.data_.end(), r.begin(), r.end());
  }
  return m;
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  runtime::resize_reused(data_, rows * cols);
  rows_ = rows;
  cols_ = cols;
}

void Matrix::reserve(std::size_t values) {
  if (values <= data_.capacity()) return;
  const std::size_t size = data_.size();
  runtime::reserve_reused(data_, values);
  // Write all of the new storage once, so that later reshapes within it
  // land on pages already resident instead of faulting them in.
  data_.resize(data_.capacity());
  data_.resize(size);
}

Matrix Matrix::take_rows(std::span<const std::size_t> idx) const {
  Matrix out;
  take_rows_into(idx, out);
  return out;
}

void Matrix::take_rows_into(std::span<const std::size_t> idx,
                            Matrix& out) const {
  out.reshape(idx.size(), cols_);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (idx[i] >= rows_) throw std::out_of_range("take_rows index");
    const double* src = row_ptr(idx[i]);
    double* dst = out.row_ptr(i);
    for (std::size_t j = 0; j < cols_; ++j) dst[j] = src[j];
  }
}

void Matrix::push_row(std::span<const double> row) {
  if (rows_ == 0 && cols_ == 0) cols_ = row.size();
  if (row.size() != cols_) {
    throw std::invalid_argument("push_row width mismatch");
  }
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot length mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("distance length mismatch");
  }
  return squared_distance(a.data(), b.data(), a.size());
}

}  // namespace waldo::ml
