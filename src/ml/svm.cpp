#include "waldo/ml/svm.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "waldo/codec/codec.hpp"
#include "waldo/ml/metrics.hpp"

namespace waldo::ml {

namespace {

/// KKT violation tolerance.
constexpr double kTolerance = 1e-3;
/// Passes without a change before SMO stops.
constexpr std::size_t kMaxStallPasses = 5;
/// Hard guard on the number of pair updates.
constexpr std::size_t kMaxUpdates = 200'000;

}  // namespace

double Svm::kernel(std::span<const double> a, std::span<const double> b) const {
  if (config_.kernel == SvmKernel::kLinear) return dot(a, b);
  return std::exp(-gamma_ * squared_distance(a, b));
}

void Svm::fit(MatrixView x_raw, std::span<const int> y_raw) {
  if (x_raw.rows() == 0 || x_raw.rows() != y_raw.size()) {
    throw std::invalid_argument("svm: bad training set");
  }
  const std::size_t n = x_raw.rows();

  bool has_safe = false, has_not_safe = false;
  for (const int label : y_raw) {
    (label == kSafe ? has_safe : has_not_safe) = true;
  }
  if (!has_safe || !has_not_safe) {
    single_class_ = true;
    only_class_ = has_safe ? kSafe : kNotSafe;
    sv_ = Matrix();
    sv_coef_.clear();
    return;
  }
  single_class_ = false;

  if (config_.standardize) {
    scaler_.fit(x_raw);
  } else {
    scaler_.set_identity(x_raw.cols());
  }
  const Matrix x = scaler_.transform(x_raw);
  gamma_ = config_.gamma > 0.0
               ? config_.gamma
               : 1.0 / static_cast<double>(std::max<std::size_t>(1, x.cols()));

  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = (y_raw[i] == kSafe) ? 1.0 : -1.0;

  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  // Error cache: E_i = f(x_i) - y_i. With all alphas zero, f = 0.
  std::vector<double> err(n);
  for (std::size_t i = 0; i < n; ++i) err[i] = -y[i];

  std::mt19937_64 rng(config_.seed);
  const double c_box = config_.c;
  const double tol = kTolerance;
  std::size_t updates = 0;
  std::size_t stall_passes = 0;

  const auto try_pair = [&](std::size_t i, std::size_t j) -> bool {
    if (i == j) return false;
    const double kii = kernel(x.row(i), x.row(i));
    const double kjj = kernel(x.row(j), x.row(j));
    const double kij = kernel(x.row(i), x.row(j));
    const double eta = kii + kjj - 2.0 * kij;
    if (eta <= 1e-12) return false;

    double lo, hi;
    if (y[i] != y[j]) {
      lo = std::max(0.0, alpha[j] - alpha[i]);
      hi = std::min(c_box, c_box + alpha[j] - alpha[i]);
    } else {
      lo = std::max(0.0, alpha[i] + alpha[j] - c_box);
      hi = std::min(c_box, alpha[i] + alpha[j]);
    }
    if (lo >= hi) return false;

    const double aj_old = alpha[j];
    const double ai_old = alpha[i];
    double aj = aj_old + y[j] * (err[i] - err[j]) / eta;
    aj = std::clamp(aj, lo, hi);
    if (std::abs(aj - aj_old) < 1e-7 * (aj + aj_old + 1e-7)) return false;
    const double ai = ai_old + y[i] * y[j] * (aj_old - aj);

    // Bias update (Platt).
    const double b1 = b - err[i] - y[i] * (ai - ai_old) * kii -
                      y[j] * (aj - aj_old) * kij;
    const double b2 = b - err[j] - y[i] * (ai - ai_old) * kij -
                      y[j] * (aj - aj_old) * kjj;
    double b_new;
    if (ai > 0.0 && ai < c_box) {
      b_new = b1;
    } else if (aj > 0.0 && aj < c_box) {
      b_new = b2;
    } else {
      b_new = (b1 + b2) / 2.0;
    }

    const double di = y[i] * (ai - ai_old);
    const double dj = y[j] * (aj - aj_old);
    const double db = b_new - b;
    for (std::size_t k = 0; k < n; ++k) {
      err[k] += di * kernel(x.row(i), x.row(k)) +
                dj * kernel(x.row(j), x.row(k)) + db;
    }
    alpha[i] = ai;
    alpha[j] = aj;
    b = b_new;
    ++updates;
    return true;
  };

  const auto second_choice = [&](std::size_t i) -> std::size_t {
    // Heuristic: maximise |E_i - E_j| over non-bound points; fall back to a
    // random index.
    std::size_t best = n;
    double best_gap = -1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (alpha[j] <= 0.0 || alpha[j] >= c_box) continue;
      const double gap = std::abs(err[i] - err[j]);
      if (gap > best_gap) {
        best_gap = gap;
        best = j;
      }
    }
    if (best != n && best_gap > 1e-12) return best;
    std::uniform_int_distribution<std::size_t> pick(0, n - 2);
    std::size_t j = pick(rng);
    if (j >= i) ++j;
    return j;
  };

  bool examine_all = true;
  while (stall_passes < kMaxStallPasses && updates < kMaxUpdates) {
    std::size_t changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!examine_all && (alpha[i] <= 0.0 || alpha[i] >= c_box)) continue;
      const double r = err[i] * y[i];
      const bool violates = (r < -tol && alpha[i] < c_box) ||
                            (r > tol && alpha[i] > 0.0);
      if (!violates) continue;
      if (try_pair(i, second_choice(i))) ++changed;
      if (updates >= kMaxUpdates) break;
    }
    if (changed == 0) {
      if (examine_all) {
        ++stall_passes;
      } else {
        examine_all = true;
        continue;
      }
    } else {
      stall_passes = 0;
    }
    examine_all = !examine_all;
  }

  // Collect support vectors.
  std::vector<std::size_t> sv_idx;
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-9) sv_idx.push_back(i);
  }
  sv_ = take_rows(x, sv_idx);
  sv_coef_.resize(sv_idx.size());
  for (std::size_t s = 0; s < sv_idx.size(); ++s) {
    sv_coef_[s] = alpha[sv_idx[s]] * y[sv_idx[s]];
  }
  bias_ = b;
}

double Svm::decision_value(std::span<const double> x_raw) const {
  if (single_class_) return only_class_ == kSafe ? 1.0 : -1.0;
  if (sv_.rows() == 0) throw std::logic_error("svm: not trained");
  const std::vector<double> x = scaler_.transform(x_raw);
  double f = bias_;
  for (std::size_t s = 0; s < sv_.rows(); ++s) {
    f += sv_coef_[s] * kernel(sv_.row(s), x);
  }
  return f;
}

int Svm::predict(std::span<const double> x) const {
  if (single_class_) return only_class_;
  return decision_value(x) >= 0.0 ? kSafe : kNotSafe;
}

void Svm::save(codec::Writer& out) const {
  out.u8(static_cast<std::uint8_t>(WireFamily::kSvm));
  out.u8(config_.kernel == SvmKernel::kRbf ? 1 : 0);
  out.f64(gamma_);
  out.f64(bias_);
  out.u8(single_class_ ? 1 : 0);
  out.i64(only_class_);
  if (single_class_) return;
  scaler_.save(out);
  out.u64(sv_.rows());
  out.u64(sv_.cols());
  out.f64_array(sv_coef_);
  for (std::size_t s = 0; s < sv_.rows(); ++s) {
    for (const double v : sv_.row(s)) out.f64(v);
  }
}

void Svm::load(codec::Reader& in) {
  if (in.u8() != static_cast<std::uint8_t>(WireFamily::kSvm)) {
    throw codec::Error("payload is not an svm");
  }
  const std::uint8_t kernel_tag = in.u8();
  if (kernel_tag > 1) throw codec::Error("unknown svm kernel tag");
  config_.kernel = kernel_tag == 1 ? SvmKernel::kRbf : SvmKernel::kLinear;
  gamma_ = in.f64();
  bias_ = in.f64();
  const std::uint8_t single = in.u8();
  if (single > 1) throw codec::Error("bad svm single-class flag");
  single_class_ = single != 0;
  only_class_ = static_cast<int>(in.i64());
  if (single_class_) {
    sv_ = Matrix();
    sv_coef_.clear();
    return;
  }
  scaler_.load(in);
  const std::size_t rows = in.count(8);
  const auto cols = static_cast<std::size_t>(in.u64());
  sv_coef_ = in.f64_array();
  if (sv_coef_.size() != rows) {
    throw codec::Error("svm coefficient count mismatch");
  }
  if (rows != 0 && cols > in.remaining() / 8 / rows) {
    throw codec::Error("svm support-vector block exceeds payload");
  }
  sv_ = Matrix(rows, cols);
  for (std::size_t s = 0; s < rows; ++s) {
    for (std::size_t c = 0; c < cols; ++c) sv_(s, c) = in.f64();
  }
}

}  // namespace waldo::ml
