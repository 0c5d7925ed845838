#include "waldo/ml/logistic_regression.hpp"

#include <cmath>
#include <stdexcept>

#include "waldo/codec/codec.hpp"
#include "waldo/ml/metrics.hpp"

namespace waldo::ml {

namespace {

/// Ridge penalty (also stabilises IRLS).
constexpr double kL2 = 1e-3;
/// Newton steps before IRLS gives up on converging.
constexpr std::size_t kMaxIterations = 50;
/// IRLS stops when the weights move less than this.
constexpr double kTolerance = 1e-8;

[[nodiscard]] double sigmoid(double z) noexcept {
  if (z >= 0.0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// In-place Gaussian elimination with partial pivoting for the (small)
/// Newton system.
bool solve(std::vector<double>& a, std::vector<double>& b, std::size_t n) {
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) pivot = r;
    }
    if (std::abs(a[pivot * n + col]) < 1e-12) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a[col * n + c], a[pivot * n + c]);
      }
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] / a[col * n + col];
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  for (std::size_t r = n; r-- > 0;) {
    double acc = b[r];
    for (std::size_t c = r + 1; c < n; ++c) acc -= a[r * n + c] * b[c];
    b[r] = acc / a[r * n + r];
  }
  return true;
}

}  // namespace

void LogisticRegression::fit(MatrixView x_raw, std::span<const int> y) {
  if (x_raw.rows() == 0 || x_raw.rows() != y.size()) {
    throw std::invalid_argument("logistic regression: bad training set");
  }
  bool has_safe = false, has_not = false;
  for (const int label : y) (label == kSafe ? has_safe : has_not) = true;
  if (!has_safe || !has_not) {
    single_class_ = true;
    only_class_ = has_safe ? kSafe : kNotSafe;
    weights_.clear();
    return;
  }
  single_class_ = false;

  scaler_.fit(x_raw);
  const Matrix x = scaler_.transform(x_raw);
  const std::size_t n = x.rows();
  const std::size_t d = x.cols() + 1;  // bias term
  weights_.assign(d, 0.0);

  std::vector<double> gradient(d), hessian(d * d);
  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    std::fill(gradient.begin(), gradient.end(), 0.0);
    std::fill(hessian.begin(), hessian.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double z = weights_[0];
      for (std::size_t c = 0; c < x.cols(); ++c) {
        z += weights_[c + 1] * x(i, c);
      }
      const double p = sigmoid(z);
      const double target = (y[i] == kSafe) ? 1.0 : 0.0;
      const double err = p - target;
      const double w = std::max(p * (1.0 - p), 1e-9);
      // Augmented feature vector phi = [1, x_i].
      for (std::size_t a = 0; a < d; ++a) {
        const double phi_a = a == 0 ? 1.0 : x(i, a - 1);
        gradient[a] += err * phi_a;
        for (std::size_t b = a; b < d; ++b) {
          const double phi_b = b == 0 ? 1.0 : x(i, b - 1);
          hessian[a * d + b] += w * phi_a * phi_b;
        }
      }
    }
    for (std::size_t a = 0; a < d; ++a) {
      gradient[a] += kL2 * weights_[a];
      hessian[a * d + a] += kL2;
      for (std::size_t b = 0; b < a; ++b) {
        hessian[a * d + b] = hessian[b * d + a];
      }
    }
    std::vector<double> step = gradient;
    std::vector<double> h = hessian;
    if (!solve(h, step, d)) break;
    double movement = 0.0;
    for (std::size_t a = 0; a < d; ++a) {
      weights_[a] -= step[a];
      movement += std::abs(step[a]);
    }
    if (movement < kTolerance) break;
  }
}

double LogisticRegression::linear(
    std::span<const double> standardized) const {
  double z = weights_[0];
  for (std::size_t c = 0; c < standardized.size(); ++c) {
    z += weights_[c + 1] * standardized[c];
  }
  return z;
}

double LogisticRegression::probability(std::span<const double> x) const {
  if (single_class_) return only_class_ == kSafe ? 1.0 : 0.0;
  if (weights_.empty()) {
    throw std::logic_error("logistic regression: not trained");
  }
  return sigmoid(linear(scaler_.transform(x)));
}

int LogisticRegression::predict(std::span<const double> x) const {
  if (single_class_) return only_class_;
  return probability(x) >= 0.5 ? kSafe : kNotSafe;
}

void LogisticRegression::save(codec::Writer& out) const {
  out.u8(static_cast<std::uint8_t>(WireFamily::kLogisticRegression));
  out.u8(single_class_ ? 1 : 0);
  out.i64(only_class_);
  if (single_class_) return;
  scaler_.save(out);
  out.f64_array(weights_);
}

void LogisticRegression::load(codec::Reader& in) {
  if (in.u8() !=
      static_cast<std::uint8_t>(WireFamily::kLogisticRegression)) {
    throw codec::Error("payload is not a logistic regression");
  }
  const std::uint8_t single = in.u8();
  if (single > 1) throw codec::Error("bad logistic single-class flag");
  single_class_ = single != 0;
  only_class_ = static_cast<int>(in.i64());
  if (single_class_) {
    weights_.clear();
    return;
  }
  scaler_.load(in);
  weights_ = in.f64_array();
}

}  // namespace waldo::ml
