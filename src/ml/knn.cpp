#include "waldo/ml/knn.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "waldo/codec/codec.hpp"
#include "waldo/ml/metrics.hpp"

namespace waldo::ml {

void KnnClassifier::fit(MatrixView x, std::span<const int> y) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("knn: bad training set");
  }
  scaler_.fit(x);
  train_ = scaler_.transform(x);
  labels_.assign(y.begin(), y.end());
}

int KnnClassifier::predict(std::span<const double> x_raw) const {
  if (train_.rows() == 0) throw std::logic_error("knn: not trained");
  const std::vector<double> x = scaler_.transform(x_raw);
  const std::size_t k = std::min(config_.k, train_.rows());

  std::vector<std::pair<double, std::size_t>> d2(train_.rows());
  for (std::size_t i = 0; i < train_.rows(); ++i) {
    d2[i] = {squared_distance(train_.row(i), x), i};
  }
  std::partial_sort(d2.begin(), d2.begin() + static_cast<std::ptrdiff_t>(k),
                    d2.end());
  std::size_t safe = 0;
  for (std::size_t i = 0; i < k; ++i) {
    safe += (labels_[d2[i].second] == kSafe) ? 1 : 0;
  }
  // Ties are conservative: not safe.
  return 2 * safe > k ? kSafe : kNotSafe;
}

void KnnClassifier::save(codec::Writer& out) const {
  out.u8(static_cast<std::uint8_t>(WireFamily::kKnn));
  out.u64(config_.k);
  scaler_.save(out);
  out.u64(train_.rows());
  out.u64(train_.cols());
  for (std::size_t r = 0; r < train_.rows(); ++r) {
    out.i64(labels_[r]);
    for (const double v : train_.row(r)) out.f64(v);
  }
}

void KnnClassifier::load(codec::Reader& in) {
  if (in.u8() != static_cast<std::uint8_t>(WireFamily::kKnn)) {
    throw codec::Error("payload is not a knn");
  }
  config_.k = static_cast<std::size_t>(in.u64());
  scaler_.load(in);
  // Every row carries at least its label varint; the cols guard below
  // bounds the double block before the matrix is allocated.
  const std::size_t rows = in.count(1);
  const auto cols = static_cast<std::size_t>(in.u64());
  if (rows != 0 && cols > in.remaining() / rows / 8) {
    throw codec::Error("knn training block exceeds payload");
  }
  train_ = Matrix(rows, cols);
  labels_.assign(rows, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    labels_[r] = static_cast<int>(in.i64());
    for (std::size_t c = 0; c < cols; ++c) train_(r, c) = in.f64();
  }
}

}  // namespace waldo::ml
