#include "waldo/ml/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace waldo::ml {

SummaryStats summarize(std::span<const double> values) {
  SummaryStats s;
  s.count = values.size();
  if (values.empty()) return s;
  double sum = 0.0;
  s.min = values[0];
  s.max = values[0];
  for (const double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(s.count);
  if (s.count > 1) {
    double ss = 0.0;
    for (const double v : values) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(s.count - 1));
  }
  return s;
}

double quantile(std::span<const double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of empty range");
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> v(values.begin(), values.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto at_lo = v.begin() + static_cast<std::ptrdiff_t>(lo);
  // The lo-th and (lo+1)-th order statistics, which are all a full sort
  // would read: selection puts the first in place and leaves the second
  // as the minimum of what lies above it.
  std::nth_element(v.begin(), at_lo, v.end());
  const double below = *at_lo;
  const double above =
      at_lo + 1 == v.end() ? below : *std::min_element(at_lo + 1, v.end());
  const double frac = pos - static_cast<double>(lo);
  return below + frac * (above - below);
}

BoxStats box_stats(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("box_stats of empty range");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  };
  double sum = 0.0;
  for (const double v : sorted) sum += v;
  return BoxStats{.min = sorted.front(),
                  .q1 = at(0.25),
                  .median = at(0.5),
                  .q3 = at(0.75),
                  .max = sorted.back(),
                  .mean = sum / static_cast<double>(sorted.size())};
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> values,
                                    std::size_t points) {
  std::vector<CdfPoint> out;
  if (values.empty() || points == 0) return out;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double p = static_cast<double>(i + 1) / static_cast<double>(points);
    const auto idx = static_cast<std::size_t>(
        std::min(p * static_cast<double>(sorted.size()),
                 static_cast<double>(sorted.size() - 1)));
    out.push_back(CdfPoint{.value = sorted[idx], .probability = p});
  }
  return out;
}

double pearson_correlation(std::span<const double> x,
                           std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("pearson: length mismatch");
  }
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {

/// Log of the beta function via lgamma.
[[nodiscard]] double log_beta(double a, double b) {
  return std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
}

/// Lentz's continued fraction for the incomplete beta function.
[[nodiscard]] double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double dm = m;
    const double m2 = 2.0 * dm;
    double aa = dm * (b - dm) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + dm) * (qab + dm) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  if (a <= 0.0 || b <= 0.0) {
    throw std::invalid_argument("incomplete_beta: a, b must be positive");
  }
  x = std::clamp(x, 0.0, 1.0);
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double front =
      std::exp(a * std::log(x) + b * std::log(1.0 - x) - log_beta(a, b));
  // Use the symmetry transformation for faster convergence.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betacf(a, b, x) / a;
  }
  return 1.0 - std::exp(b * std::log(1.0 - x) + a * std::log(x) -
                        log_beta(a, b)) *
                   betacf(b, a, 1.0 - x) / b;
}

double f_distribution_sf(double f, double d1, double d2) {
  if (f <= 0.0) return 1.0;
  return incomplete_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f));
}

AnovaResult anova_one_way(std::span<const std::vector<double>> groups) {
  std::size_t total_n = 0;
  double grand_sum = 0.0;
  std::size_t nonempty = 0;
  for (const auto& g : groups) {
    total_n += g.size();
    for (const double v : g) grand_sum += v;
    if (!g.empty()) ++nonempty;
  }
  AnovaResult r;
  if (nonempty < 2 || total_n <= nonempty) return r;
  const double grand_mean = grand_sum / static_cast<double>(total_n);

  double ss_between = 0.0;
  double ss_within = 0.0;
  for (const auto& g : groups) {
    if (g.empty()) continue;
    double gm = 0.0;
    for (const double v : g) gm += v;
    gm /= static_cast<double>(g.size());
    ss_between += static_cast<double>(g.size()) * (gm - grand_mean) *
                  (gm - grand_mean);
    for (const double v : g) ss_within += (v - gm) * (v - gm);
  }
  r.df_between = static_cast<double>(nonempty - 1);
  r.df_within = static_cast<double>(total_n - nonempty);
  if (ss_within <= 0.0) {
    // Degenerate: all within-group variance vanished; report an extreme F.
    r.f_statistic = 1e12;
    r.p_value = 0.0;
    return r;
  }
  r.f_statistic =
      (ss_between / r.df_between) / (ss_within / r.df_within);
  r.p_value = f_distribution_sf(r.f_statistic, r.df_between, r.df_within);
  return r;
}

}  // namespace waldo::ml
