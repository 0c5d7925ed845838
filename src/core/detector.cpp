#include "waldo/core/detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace waldo::core {

namespace {

/// Level of the confidence interval whose span decides convergence.
constexpr double kConfidence = 0.90;
/// Readings outside these quantiles are discarded as outliers.
constexpr double kOutlierLowQuantile = 0.05;
constexpr double kOutlierHighQuantile = 0.95;

/// Acklam's rational approximation of the standard normal quantile
/// function; relative error below 1.15e-9 over (0, 1).
[[nodiscard]] double normal_quantile(double p) {
  if (p <= 0.0 || p >= 1.0) {
    throw std::invalid_argument("normal quantile needs p in (0, 1)");
  }
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace

double normal_critical_value(double confidence) {
  if (confidence <= 0.0 || confidence >= 1.0) {
    throw std::invalid_argument("confidence must be in (0, 1)");
  }
  return normal_quantile(0.5 + confidence / 2.0);
}

ConvergenceFilter::ConvergenceFilter(DetectorConfig config)
    : config_(config) {
  if (config_.alpha_db <= 0.0) {
    throw std::invalid_argument("alpha must be positive");
  }
  if (config_.min_samples < 2) config_.min_samples = 2;
}

std::vector<double> ConvergenceFilter::trimmed() const {
  std::vector<double> sorted(readings_);
  std::sort(sorted.begin(), sorted.end());
  const auto n = sorted.size();
  const auto lo = static_cast<std::size_t>(kOutlierLowQuantile *
                                           static_cast<double>(n));
  auto hi = static_cast<std::size_t>(
      std::ceil(kOutlierHighQuantile * static_cast<double>(n)));
  hi = std::max(std::min(hi, n), lo + 1);
  return std::vector<double>(sorted.begin() + static_cast<std::ptrdiff_t>(lo),
                             sorted.begin() + static_cast<std::ptrdiff_t>(hi));
}

double ConvergenceFilter::estimate_dbm() const {
  if (readings_.empty()) throw std::logic_error("no readings ingested");
  const std::vector<double> kept = trimmed();
  double sum = 0.0;
  for (const double v : kept) sum += v;
  return sum / static_cast<double>(kept.size());
}

double ConvergenceFilter::ci_span_db() const {
  const std::vector<double> kept = trimmed();
  if (kept.size() < 2) return std::numeric_limits<double>::infinity();
  double mean = 0.0;
  for (const double v : kept) mean += v;
  mean /= static_cast<double>(kept.size());
  double ss = 0.0;
  for (const double v : kept) ss += (v - mean) * (v - mean);
  const double sd = std::sqrt(ss / static_cast<double>(kept.size() - 1));
  const double z = normal_critical_value(kConfidence);
  return 2.0 * z * sd / std::sqrt(static_cast<double>(kept.size()));
}

bool ConvergenceFilter::ingest(double rss_dbm) {
  if (converged_) return true;
  readings_.push_back(rss_dbm);
  if (readings_.size() < config_.min_samples) return false;
  if (ci_span_db() < config_.alpha_db) converged_ = true;
  return converged_;
}

bool ConvergenceFilter::exhausted() const noexcept {
  return !converged_ && readings_.size() >= config_.max_samples;
}

}  // namespace waldo::core
