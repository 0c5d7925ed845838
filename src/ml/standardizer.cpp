#include "waldo/ml/standardizer.hpp"

#include <cmath>
#include <stdexcept>

#include "waldo/codec/codec.hpp"
#include "waldo/ml/classifier.hpp"

namespace waldo::ml {

void Standardizer::fit(MatrixView x) {
  if (x.rows() == 0) throw std::invalid_argument("standardizer: empty fit");
  const std::size_t d = x.cols();
  mean_.assign(d, 0.0);
  scale_.assign(d, 1.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < d; ++c) mean_[c] += x(r, c);
  }
  for (double& m : mean_) m /= static_cast<double>(x.rows());
  std::vector<double> ss(d, 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      const double dvt = x(r, c) - mean_[c];
      ss[c] += dvt * dvt;
    }
  }
  for (std::size_t c = 0; c < d; ++c) {
    const double var = ss[c] / static_cast<double>(x.rows());
    scale_[c] = var > 1e-24 ? std::sqrt(var) : 1.0;
  }
}

void Standardizer::set_identity(std::size_t dims) {
  mean_.assign(dims, 0.0);
  scale_.assign(dims, 1.0);
}

Matrix Standardizer::transform(MatrixView x) const {
  if (!fitted()) throw std::logic_error("standardizer not fitted");
  if (x.cols() != dims()) {
    throw std::invalid_argument("standardizer: dimension mismatch");
  }
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out(r, c) = (x(r, c) - mean_[c]) / scale_[c];
    }
  }
  return out;
}

std::vector<double> Standardizer::transform(
    std::span<const double> row) const {
  if (!fitted()) throw std::logic_error("standardizer not fitted");
  if (row.size() != dims()) {
    throw std::invalid_argument("standardizer: dimension mismatch");
  }
  std::vector<double> out(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) {
    out[c] = (row[c] - mean_[c]) / scale_[c];
  }
  return out;
}

void Standardizer::save(codec::Writer& out) const {
  out.u8(static_cast<std::uint8_t>(WireFamily::kStandardizer));
  out.f64_array(mean_);
  out.f64_array(scale_);
}

void Standardizer::load(codec::Reader& in) {
  if (in.u8() != static_cast<std::uint8_t>(WireFamily::kStandardizer)) {
    throw codec::Error("payload is not a standardizer");
  }
  mean_ = in.f64_array();
  scale_ = in.f64_array();
  if (scale_.size() != mean_.size()) {
    throw codec::Error("standardizer mean/scale length mismatch");
  }
}

}  // namespace waldo::ml
