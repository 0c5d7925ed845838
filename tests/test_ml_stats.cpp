#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "waldo/ml/matrix.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/ml/stats.hpp"

namespace waldo::ml {
namespace {

TEST(Matrix, BasicShapeAndAccess) {
  Matrix m(3, 2, 1.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  m(1, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_EQ(m.row(1).size(), 2u);
}

TEST(Matrix, FromRowsAndTake) {
  const Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  const std::vector<std::size_t> idx{2, 0};
  const Matrix sub = m.take_rows(idx);
  EXPECT_DOUBLE_EQ(sub(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(sub(1, 2), 3.0);
  const Matrix cols = m.take_cols(2);
  EXPECT_EQ(cols.cols(), 2u);
  EXPECT_DOUBLE_EQ(cols(2, 1), 8.0);
  EXPECT_THROW(m.take_cols(5), std::out_of_range);
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {1}}), std::invalid_argument);
}

TEST(Matrix, PushRowGrowsAndValidates) {
  Matrix m;
  const std::vector<double> r1{1.0, 2.0};
  m.push_row(r1);
  m.push_row(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(m.push_row(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Matrix, DotAndDistance) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 27.0);
  const std::vector<double> short_v{1.0};
  EXPECT_THROW((void)dot(a, short_v), std::invalid_argument);
  EXPECT_THROW((void)squared_distance(a, short_v), std::invalid_argument);
}

TEST(Metrics, ConfusionMatrixRates) {
  ConfusionMatrix cm;
  // 10 actually safe: 8 called safe, 2 called not-safe.
  for (int i = 0; i < 8; ++i) cm.add(kSafe, kSafe);
  for (int i = 0; i < 2; ++i) cm.add(kNotSafe, kSafe);
  // 5 actually not safe: 1 called safe, 4 called not-safe.
  cm.add(kSafe, kNotSafe);
  for (int i = 0; i < 4; ++i) cm.add(kNotSafe, kNotSafe);

  EXPECT_EQ(cm.total(), 15u);
  EXPECT_DOUBLE_EQ(cm.fn_rate(), 0.2);
  EXPECT_DOUBLE_EQ(cm.fp_rate(), 0.2);
  EXPECT_NEAR(cm.error_rate(), 3.0 / 15.0, 1e-12);

  ConfusionMatrix other = cm;
  other.merge(cm);
  EXPECT_EQ(other.total(), 30u);
  EXPECT_DOUBLE_EQ(other.fn_rate(), 0.2);
}

TEST(Metrics, EmptyDenominatorsAreZero) {
  ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.fp_rate(), 0.0);
  EXPECT_DOUBLE_EQ(cm.fn_rate(), 0.0);
  EXPECT_DOUBLE_EQ(cm.error_rate(), 0.0);
}

TEST(Metrics, CompareLabelsValidatesLength) {
  const std::vector<int> a{kSafe, kNotSafe};
  const std::vector<int> b{kSafe};
  EXPECT_THROW((void)compare_labels(a, b), std::invalid_argument);
}

TEST(Stats, SummarizeKnownValues) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const SummaryStats s = summarize(v);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
}

/// quantile() as it was before it selected instead of sorting, kept
/// verbatim as the reference.
double sorted_quantile(std::span<const double> values, double q) {
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// Selection reads the same two order statistics as the full sort, so
// every result is the same double (compared with ==, NaN aside: neither
// algorithm fixes the sign of a zero result).
TEST(Stats, QuantileMatchesTheSortingReference) {
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::normal_distribution<double> power(-85.0, 12.0);
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t compared = 0;
  for (std::size_t n = 1; n <= 300; ++n) {
    for (int kind = 0; kind < 4; ++kind) {
      std::vector<double> v(n);
      for (double& x : v) {
        switch (kind) {
          case 0: x = power(rng); break;
          // Heavy duplicates: a handful of distinct values, zeros of both
          // signs among them.
          case 1: x = std::floor(unit(rng) * 4.0) - 2.0; break;
          case 2: x = unit(rng) < 0.5 ? 0.0 : -0.0; break;
          // Infinities of both signs among finite readings.
          default: {
            const double u = unit(rng);
            x = u < 0.15 ? inf : u < 0.3 ? -inf : std::round(power(rng));
          }
        }
      }
      std::vector<double> qs{0.0, 0.25, 0.5, 0.9, 1.0};
      for (int r = 0; r < 3; ++r) qs.push_back(unit(rng));
      for (const double q : qs) {
        const double got = quantile(v, q);
        const double want = sorted_quantile(v, q);
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(got)) << "n=" << n << " q=" << q;
        } else {
          EXPECT_TRUE(got == want)
              << "n=" << n << " kind=" << kind << " q=" << q << ": " << got
              << " vs " << want;
        }
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 300u * 4u * 8u);
}

TEST(Stats, BoxStatsOrdered) {
  std::mt19937_64 rng(1);
  std::normal_distribution<double> g(10.0, 2.0);
  std::vector<double> v(500);
  for (auto& x : v) x = g(rng);
  const BoxStats b = box_stats(v);
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
  EXPECT_NEAR(b.median, 10.0, 0.4);
  EXPECT_NEAR(b.q3 - b.q1, 2.0 * 1.349, 0.4);  // normal IQR
}

TEST(Stats, EmpiricalCdfMonotone) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  const auto cdf = empirical_cdf(v, 5);
  ASSERT_EQ(cdf.size(), 5u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].probability, cdf[i - 1].probability);
  }
  EXPECT_DOUBLE_EQ(cdf.back().probability, 1.0);
  EXPECT_TRUE(empirical_cdf({}, 5).empty());
}

TEST(Stats, PearsonKnownCases) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> y{2.0, 4.0, 6.0, 8.0, 10.0};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  for (auto& v : y) v = -v;
  EXPECT_NEAR(pearson_correlation(x, y), -1.0, 1e-12);
  const std::vector<double> constant(5, 3.0);
  EXPECT_DOUBLE_EQ(pearson_correlation(x, constant), 0.0);
  EXPECT_THROW((void)pearson_correlation(x, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Stats, IncompleteBetaProperties) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
  // I_x(1,1) = x (uniform).
  for (double x = 0.1; x < 1.0; x += 0.2) {
    EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-10);
  }
  // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(incomplete_beta(2.5, 4.0, 0.3),
              1.0 - incomplete_beta(4.0, 2.5, 0.7), 1e-10);
  EXPECT_THROW((void)incomplete_beta(0.0, 1.0, 0.5), std::invalid_argument);
}

TEST(Stats, FDistributionSurvival) {
  // Known critical value: F(1, 10) upper 5% ~ 4.965.
  EXPECT_NEAR(f_distribution_sf(4.965, 1.0, 10.0), 0.05, 0.002);
  // F(2, 20) upper 1% ~ 5.849.
  EXPECT_NEAR(f_distribution_sf(5.849, 2.0, 20.0), 0.01, 0.001);
  EXPECT_DOUBLE_EQ(f_distribution_sf(0.0, 3.0, 5.0), 1.0);
}

TEST(Stats, AnovaSeparatedGroupsSignificant) {
  std::mt19937_64 rng(2);
  std::normal_distribution<double> g1(0.0, 1.0), g2(5.0, 1.0);
  std::vector<std::vector<double>> groups(2);
  for (int i = 0; i < 100; ++i) {
    groups[0].push_back(g1(rng));
    groups[1].push_back(g2(rng));
  }
  const AnovaResult r = anova_one_way(groups);
  EXPECT_GT(r.f_statistic, 100.0);
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_DOUBLE_EQ(r.df_between, 1.0);
  EXPECT_DOUBLE_EQ(r.df_within, 198.0);
}

TEST(Stats, AnovaIdenticalDistributionsNotSignificant) {
  std::mt19937_64 rng(3);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<std::vector<double>> groups(2);
  for (int i = 0; i < 200; ++i) {
    groups[0].push_back(g(rng));
    groups[1].push_back(g(rng));
  }
  const AnovaResult r = anova_one_way(groups);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(Stats, AnovaDegenerateInputs) {
  // One group only: no test possible.
  const std::vector<std::vector<double>> one{{1.0, 2.0, 3.0}};
  EXPECT_DOUBLE_EQ(anova_one_way(one).p_value, 1.0);
  // Zero within-group variance but different means: extreme significance.
  const std::vector<std::vector<double>> split{{1.0, 1.0}, {2.0, 2.0}};
  EXPECT_DOUBLE_EQ(anova_one_way(split).p_value, 0.0);
}

}  // namespace
}  // namespace waldo::ml
