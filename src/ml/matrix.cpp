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

Matrix take_rows(MatrixView x, std::span<const std::size_t> idx) {
  Matrix out(idx.size(), x.cols());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (idx[i] >= x.rows()) throw std::out_of_range("take_rows index");
    const double* src = x.row_ptr(idx[i]);
    double* dst = out.row_ptr(i);
    for (std::size_t j = 0; j < x.cols(); ++j) dst[j] = src[j];
  }
  return out;
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
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

}  // namespace waldo::ml
