// Small dense row-major matrix used as the feature container of the ML
// library. Not a linear-algebra package: classifiers here need row access,
// dot products and column statistics, nothing more.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace waldo::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from row vectors; all rows must share one length.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return std::span<double>(data_).subspan(r * cols_, cols_);
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return std::span<const double>(data_).subspan(r * cols_, cols_);
  }

  /// Unchecked pointer to the first value of row `r` (rows are contiguous,
  /// `cols()` apart) — the form the build kernels loop over.
  [[nodiscard]] double* row_ptr(std::size_t r) noexcept {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] const double* row_ptr(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  /// Sets the shape to rows x cols for a matrix reused from one call to
  /// the next: its storage is kept when large enough and at least doubled
  /// when not (runtime::resize_reused). Values are unspecified until
  /// written.
  void reshape(std::size_t rows, std::size_t cols);

  void push_row(std::span<const double> row);

  [[nodiscard]] const std::vector<double>& data() const noexcept {
    return data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Read-only view of `rows` contiguous rows of `cols` values laid out as in
/// a Matrix: a whole Matrix, or a run of rows inside one.
class MatrixView {
 public:
  /// Implicit: every Matrix is a view of its own rows.
  MatrixView(const Matrix& m) noexcept
      : MatrixView(m.data().data(), m.rows(), m.cols()) {}
  MatrixView(const double* data, std::size_t rows, std::size_t cols) noexcept
      : data_(data), rows_(rows), cols_(cols) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_ + r * cols_, cols_};
  }
  [[nodiscard]] const double* row_ptr(std::size_t r) const noexcept {
    return data_ + r * cols_;
  }

 private:
  const double* data_;
  std::size_t rows_;
  std::size_t cols_;
};

/// Copy of selected rows of `x`, in the given order. Throws
/// std::out_of_range for an index past its last row.
[[nodiscard]] Matrix take_rows(MatrixView x, std::span<const std::size_t> idx);

[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance between equal-length vectors.
[[nodiscard]] double squared_distance(std::span<const double> a,
                                      std::span<const double> b);

}  // namespace waldo::ml
