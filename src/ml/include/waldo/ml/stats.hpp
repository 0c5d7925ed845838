// Statistics toolbox: summary stats and quantiles (boxplots of Figs. 10/11,
// CDF series everywhere), Pearson correlation (Fig. 7), and the one-way
// ANOVA F-test with a real F-distribution p-value (feature selection,
// Section 3.2).
#pragma once

#include <span>
#include <vector>

namespace waldo::ml {

struct SummaryStats {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1)
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] SummaryStats summarize(std::span<const double> values);

/// Linear-interpolated quantile, q in [0, 1]. Selects on a copy: O(n).
[[nodiscard]] double quantile(std::span<const double> values, double q);

/// Boxplot five-number summary plus the mean.
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

[[nodiscard]] BoxStats box_stats(std::span<const double> values);

/// Empirical CDF evaluated at `points` equally spaced quantile levels;
/// returns {value, cumulative_probability} pairs for printing CDF series.
struct CdfPoint {
  double value = 0.0;
  double probability = 0.0;
};
[[nodiscard]] std::vector<CdfPoint> empirical_cdf(
    std::span<const double> values, std::size_t points = 20);

/// Pearson product-moment correlation; 0 when either side is constant.
[[nodiscard]] double pearson_correlation(std::span<const double> x,
                                         std::span<const double> y);

/// One-way ANOVA between groups.
struct AnovaResult {
  double f_statistic = 0.0;
  double p_value = 1.0;
  double df_between = 0.0;
  double df_within = 0.0;
};
[[nodiscard]] AnovaResult anova_one_way(
    std::span<const std::vector<double>> groups);

/// Regularised incomplete beta function I_x(a, b) (continued fraction),
/// exposed because the F- and t-distribution tails reduce to it.
[[nodiscard]] double incomplete_beta(double a, double b, double x);

/// Upper-tail probability P(F >= f) for an F(d1, d2) distribution.
[[nodiscard]] double f_distribution_sf(double f, double d1, double d2);

}  // namespace waldo::ml
