#include "waldo/ml/naive_bayes.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "waldo/codec/codec.hpp"
#include "waldo/ml/metrics.hpp"

namespace waldo::ml {

namespace {
constexpr double kVarFloor = 1e-9;  // keeps log-densities finite
}

void GaussianNaiveBayes::fit(const Matrix& x, std::span<const int> y) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("naive bayes: bad training set");
  }
  dims_ = x.cols();
  std::array<std::size_t, 2> counts{0, 0};
  for (const int label : y) ++counts[label == kSafe ? 1 : 0];

  if (counts[0] == 0 || counts[1] == 0) {
    single_class_ = true;
    only_class_ = counts[1] > 0 ? kSafe : kNotSafe;
    return;
  }
  single_class_ = false;

  for (int cls = 0; cls < 2; ++cls) {
    auto& m = classes_[static_cast<std::size_t>(cls)];
    m.mean.assign(dims_, 0.0);
    m.var.assign(dims_, 0.0);
    m.log_prior = std::log(static_cast<double>(counts[static_cast<std::size_t>(cls)]) /
                           static_cast<double>(y.size()));
  }
  for (std::size_t r = 0; r < x.rows(); ++r) {
    auto& m = classes_[y[r] == kSafe ? 1 : 0];
    for (std::size_t c = 0; c < dims_; ++c) m.mean[c] += x(r, c);
  }
  for (int cls = 0; cls < 2; ++cls) {
    auto& m = classes_[static_cast<std::size_t>(cls)];
    for (double& v : m.mean) {
      v /= static_cast<double>(counts[static_cast<std::size_t>(cls)]);
    }
  }
  for (std::size_t r = 0; r < x.rows(); ++r) {
    auto& m = classes_[y[r] == kSafe ? 1 : 0];
    for (std::size_t c = 0; c < dims_; ++c) {
      const double d = x(r, c) - m.mean[c];
      m.var[c] += d * d;
    }
  }
  for (int cls = 0; cls < 2; ++cls) {
    auto& m = classes_[static_cast<std::size_t>(cls)];
    for (double& v : m.var) {
      v = std::max(v / static_cast<double>(counts[static_cast<std::size_t>(cls)]),
                   kVarFloor);
    }
  }
}

double GaussianNaiveBayes::decision_value(std::span<const double> x) const {
  if (x.size() != dims_) {
    throw std::invalid_argument("naive bayes: dimension mismatch");
  }
  double score[2];
  for (int cls = 0; cls < 2; ++cls) {
    const auto& m = classes_[static_cast<std::size_t>(cls)];
    double s = m.log_prior;
    for (std::size_t c = 0; c < dims_; ++c) {
      const double d = x[c] - m.mean[c];
      s += -0.5 * std::log(2.0 * std::numbers::pi * m.var[c]) -
           d * d / (2.0 * m.var[c]);
    }
    score[cls] = s;
  }
  return score[1] - score[0];
}

int GaussianNaiveBayes::predict(std::span<const double> x) const {
  if (single_class_) return only_class_;
  if (dims_ == 0) throw std::logic_error("naive bayes: not trained");
  return decision_value(x) >= 0.0 ? kSafe : kNotSafe;
}

void GaussianNaiveBayes::save(codec::Writer& out) const {
  out.u8(static_cast<std::uint8_t>(WireFamily::kNaiveBayes));
  out.u64(dims_);
  out.u8(single_class_ ? 1 : 0);
  out.i64(only_class_);
  if (single_class_) return;
  for (const auto& m : classes_) {
    out.f64(m.log_prior);
    out.f64_array(m.mean);
    out.f64_array(m.var);
  }
}

void GaussianNaiveBayes::load(codec::Reader& in) {
  if (in.u8() != static_cast<std::uint8_t>(WireFamily::kNaiveBayes)) {
    throw codec::Error("payload is not a naive bayes");
  }
  dims_ = static_cast<std::size_t>(in.u64());
  const std::uint8_t single = in.u8();
  if (single > 1) throw codec::Error("bad naive bayes single-class flag");
  single_class_ = single != 0;
  only_class_ = static_cast<int>(in.i64());
  if (single_class_) return;
  for (auto& m : classes_) {
    m.log_prior = in.f64();
    m.mean = in.f64_array();
    m.var = in.f64_array();
    if (m.mean.size() != dims_ || m.var.size() != dims_) {
      throw codec::Error("naive bayes class-parameter length mismatch");
    }
  }
}

}  // namespace waldo::ml
