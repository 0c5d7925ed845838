#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "waldo/ml/cross_validation.hpp"
#include "waldo/ml/naive_bayes.hpp"
#include "waldo/ml/svm.hpp"

namespace waldo::ml {
namespace {

TEST(KFold, PartitionCoversAllIndicesExactlyOnce) {
  const auto folds = kfold_indices(103, 10, 5);
  ASSERT_EQ(folds.size(), 10u);
  std::vector<std::size_t> all;
  for (const auto& f : folds) {
    EXPECT_GE(f.size(), 10u);
    EXPECT_LE(f.size(), 11u);
    all.insert(all.end(), f.begin(), f.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<std::size_t> want(103);
  std::iota(want.begin(), want.end(), std::size_t{0});
  EXPECT_EQ(all, want);
}

TEST(KFold, DeterministicPerSeed) {
  EXPECT_EQ(kfold_indices(50, 5, 1), kfold_indices(50, 5, 1));
  EXPECT_NE(kfold_indices(50, 5, 1), kfold_indices(50, 5, 2));
}

TEST(KFold, Validation) {
  EXPECT_THROW(kfold_indices(10, 1, 1), std::invalid_argument);
  EXPECT_THROW(kfold_indices(3, 10, 1), std::invalid_argument);
}

void make_blobs(std::size_t n, double gap, std::uint64_t seed, Matrix& x,
                std::vector<int>& y) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  x = Matrix(n, 2);
  y.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const bool safe = i % 2 == 0;
    x(i, 0) = g(rng) + (safe ? gap : -gap);
    x(i, 1) = g(rng);
    y[i] = safe ? kSafe : kNotSafe;
  }
}

TEST(CrossValidate, EvaluatesEveryPointExactlyOnce) {
  Matrix x;
  std::vector<int> y;
  make_blobs(250, 2.5, 3, x, y);
  const auto result = cross_validate(
      x, y, [] { return std::make_unique<GaussianNaiveBayes>(); });
  EXPECT_EQ(result.overall.total(), 250u);
  EXPECT_EQ(result.per_fold.size(), 10u);
  std::size_t sum = 0;
  for (const auto& f : result.per_fold) sum += f.total();
  EXPECT_EQ(sum, 250u);
  EXPECT_LT(result.overall.error_rate(), 0.05);
}

TEST(CrossValidate, TrainingCapStillCoversAllTests) {
  Matrix x;
  std::vector<int> y;
  make_blobs(300, 2.0, 4, x, y);
  CrossValidationConfig cfg;
  cfg.max_train_samples = 50;
  const auto result = cross_validate(
      x, y, [] { return std::make_unique<GaussianNaiveBayes>(); }, cfg);
  EXPECT_EQ(result.overall.total(), 300u);
  EXPECT_LT(result.overall.error_rate(), 0.1);
}

TEST(CrossValidate, SizeMismatchThrows) {
  Matrix x = Matrix::from_rows({{1.0}, {2.0}});
  const std::vector<int> y{kSafe};
  EXPECT_THROW(
      cross_validate(x, y,
                     [] { return std::make_unique<GaussianNaiveBayes>(); }),
      std::invalid_argument);
}

class FoldCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FoldCountSweep, AnyFoldCountCoversData) {
  Matrix x;
  std::vector<int> y;
  make_blobs(120, 2.0, 8, x, y);
  CrossValidationConfig cfg;
  cfg.folds = GetParam();
  const auto result = cross_validate(
      x, y, [] { return std::make_unique<GaussianNaiveBayes>(); }, cfg);
  EXPECT_EQ(result.overall.total(), 120u);
  EXPECT_EQ(result.per_fold.size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Folds, FoldCountSweep,
                         ::testing::Values(2, 5, 10, 12));

}  // namespace
}  // namespace waldo::ml
