#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "waldo/codec/codec.hpp"
#include "waldo/ml/decision_tree.hpp"
#include "waldo/ml/kmeans.hpp"
#include "waldo/ml/knn.hpp"
#include "waldo/ml/logistic_regression.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/ml/naive_bayes.hpp"
#include "waldo/ml/standardizer.hpp"
#include "waldo/ml/svm.hpp"

namespace waldo::ml {
namespace {

/// Two Gaussian blobs, linearly separable when `gap` is large.
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

/// Annulus-vs-core data: not linearly separable, easy for RBF.
void make_disk(std::size_t n, std::uint64_t seed, Matrix& x,
               std::vector<int>& y) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  x = Matrix(n, 2);
  y.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    double a = u(rng), b = u(rng);
    // Keep a margin around the circle so the task is clean.
    while (std::abs(a * a + b * b - 2.25) < 0.4) {
      a = u(rng);
      b = u(rng);
    }
    x(i, 0) = a;
    x(i, 1) = b;
    y[i] = (a * a + b * b < 2.25) ? kNotSafe : kSafe;
  }
}

/// Saves `from` into a binary codec descriptor and loads it into `to`.
template <typename T>
void codec_round_trip(const T& from, T& to) {
  codec::Writer w;
  from.save(w);
  const std::string bytes = std::move(w).finish();
  codec::Reader r(bytes);
  to.load(r);
  r.expect_done();
}

[[nodiscard]] double training_error(const Classifier& clf, const Matrix& x,
                                    std::span<const int> y) {
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < x.rows(); ++i) cm.add(clf.predict(x.row(i)), y[i]);
  return cm.error_rate();
}

TEST(Standardizer, TransformsToZeroMeanUnitVariance) {
  std::mt19937_64 rng(1);
  std::normal_distribution<double> g(50.0, 10.0);
  Matrix x(500, 2);
  for (std::size_t i = 0; i < 500; ++i) {
    x(i, 0) = g(rng);
    x(i, 1) = 1000.0 + 0.1 * g(rng);
  }
  Standardizer s;
  s.fit(x);
  const Matrix t = s.transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t i = 0; i < t.rows(); ++i) mean += t(i, c);
    mean /= 500.0;
    for (std::size_t i = 0; i < t.rows(); ++i) {
      var += (t(i, c) - mean) * (t(i, c) - mean);
    }
    var /= 500.0;
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-9);
  }
}

TEST(Standardizer, ConstantColumnPassesThrough) {
  Matrix x = Matrix::from_rows({{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}});
  Standardizer s;
  s.fit(x);
  const auto row = s.transform(std::vector<double>{2.0, 5.0});
  EXPECT_NEAR(row[1], 0.0, 1e-12);  // centred, unit scale
}

TEST(Standardizer, SaveLoadRoundTrip) {
  Matrix x = Matrix::from_rows({{1.0, 10.0}, {3.0, 30.0}, {5.0, 20.0}});
  Standardizer s;
  s.fit(x);
  Standardizer t;
  codec_round_trip(s, t);
  const std::vector<double> probe{2.0, 25.0};
  EXPECT_EQ(s.transform(probe), t.transform(probe));
}

TEST(Standardizer, ErrorsOnMisuse) {
  Standardizer s;
  EXPECT_THROW(s.transform(std::vector<double>{1.0}), std::logic_error);
  EXPECT_THROW(s.fit(Matrix()), std::invalid_argument);
  Matrix x = Matrix::from_rows({{1.0, 2.0}});
  s.fit(x);
  EXPECT_THROW(s.transform(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(NaiveBayes, SeparatesBlobs) {
  Matrix x;
  std::vector<int> y;
  make_blobs(400, 3.0, 2, x, y);
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  EXPECT_LT(training_error(nb, x, y), 0.02);
}

TEST(NaiveBayes, SingleClassDegeneratesToConstant) {
  Matrix x = Matrix::from_rows({{1.0}, {2.0}, {3.0}});
  const std::vector<int> y(3, kSafe);
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  EXPECT_EQ(nb.predict(std::vector<double>{-100.0}), kSafe);
}

TEST(NaiveBayes, SaveLoadPreservesPredictions) {
  Matrix x;
  std::vector<int> y;
  make_blobs(200, 2.0, 3, x, y);
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  GaussianNaiveBayes nb2;
  codec_round_trip(nb, nb2);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(nb.predict(x.row(i)), nb2.predict(x.row(i)));
  }
  EXPECT_GT(nb.descriptor_size_bytes(), 0u);
}

TEST(NaiveBayes, PriorsShiftDecisions) {
  // 90% not-safe training data: ambiguous points lean not-safe.
  std::mt19937_64 rng(4);
  std::normal_distribution<double> g(0.0, 1.0);
  Matrix x(1000, 1);
  std::vector<int> y(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    const bool safe = i % 10 == 0;
    x(i, 0) = g(rng) + (safe ? 0.5 : -0.5);
    y[i] = safe ? kSafe : kNotSafe;
  }
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  EXPECT_EQ(nb.predict(std::vector<double>{0.0}), kNotSafe);
}

TEST(NaiveBayes, ErrorsOnMisuse) {
  GaussianNaiveBayes nb;
  EXPECT_THROW((void)nb.predict(std::vector<double>{1.0}), std::logic_error);
  Matrix x = Matrix::from_rows({{1.0}});
  EXPECT_THROW(nb.fit(x, std::vector<int>{}), std::invalid_argument);
  // Wider than the widest feature row (location, RSS, CFT and AFT).
  EXPECT_THROW(nb.fit(Matrix(2, GaussianNaiveBayes::kMaxDims + 1),
                      std::vector<int>{kSafe, kNotSafe}),
               std::invalid_argument);
}

TEST(Svm, RbfSolvesDiskProblem) {
  Matrix x;
  std::vector<int> y;
  make_disk(400, 5, x, y);
  Svm svm;
  svm.fit(x, y);
  EXPECT_LT(training_error(svm, x, y), 0.03);
  EXPECT_GT(svm.num_support_vectors(), 0u);
  EXPECT_LT(svm.num_support_vectors(), x.rows());
}

TEST(Svm, LinearKernelOnBlobs) {
  Matrix x;
  std::vector<int> y;
  make_blobs(300, 2.5, 6, x, y);
  SvmConfig cfg;
  cfg.kernel = SvmKernel::kLinear;
  Svm svm(cfg);
  svm.fit(x, y);
  EXPECT_LT(training_error(svm, x, y), 0.03);
}

TEST(Svm, DecisionValueSignMatchesPrediction) {
  Matrix x;
  std::vector<int> y;
  make_blobs(200, 2.0, 7, x, y);
  Svm svm;
  svm.fit(x, y);
  for (std::size_t i = 0; i < x.rows(); i += 10) {
    const double f = svm.decision_value(x.row(i));
    EXPECT_EQ(svm.predict(x.row(i)), f >= 0.0 ? kSafe : kNotSafe);
  }
}

TEST(Svm, SaveLoadPreservesPredictions) {
  Matrix x;
  std::vector<int> y;
  make_disk(300, 8, x, y);
  Svm svm;
  svm.fit(x, y);
  Svm svm2;
  codec_round_trip(svm, svm2);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(svm.predict(x.row(i)), svm2.predict(x.row(i)));
  }
}

TEST(Svm, SingleClassDegeneratesToConstant) {
  Matrix x = Matrix::from_rows({{0.0, 0.0}, {1.0, 1.0}});
  Svm svm;
  svm.fit(x, std::vector<int>{kNotSafe, kNotSafe});
  EXPECT_EQ(svm.predict(std::vector<double>{5.0, 5.0}), kNotSafe);
  Svm svm2;
  codec_round_trip(svm, svm2);
  EXPECT_EQ(svm2.predict(std::vector<double>{5.0, 5.0}), kNotSafe);
}

TEST(Svm, DescriptorLargerThanNaiveBayes) {
  // The Section 5 model-size tradeoff: SVM descriptors carry support
  // vectors; NB carries only moments.
  Matrix x;
  std::vector<int> y;
  make_disk(600, 9, x, y);
  Svm svm;
  svm.fit(x, y);
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  EXPECT_GT(svm.descriptor_size_bytes(), 4 * nb.descriptor_size_bytes());
}

class SvmSeparationSweep : public ::testing::TestWithParam<double> {};

TEST_P(SvmSeparationSweep, AccuracyImprovesWithSeparation) {
  Matrix x;
  std::vector<int> y;
  make_blobs(400, GetParam(), 11, x, y);
  Svm svm;
  svm.fit(x, y);
  const double err = training_error(svm, x, y);
  // Bayes error of two unit gaussians at distance 2*gap: Q(gap).
  const double bayes = 0.5 * std::erfc(GetParam() / std::sqrt(2.0));
  EXPECT_LT(err, bayes + 0.08);
}

INSTANTIATE_TEST_SUITE_P(Gaps, SvmSeparationSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 3.0));

TEST(DecisionTree, FitsTrainingDataNearPerfectly) {
  // The paper's overfitting observation: trees reach ~zero training error
  // on this kind of data.
  Matrix x;
  std::vector<int> y;
  make_disk(400, 12, x, y);
  DecisionTree tree;
  tree.fit(x, y);
  EXPECT_LT(training_error(tree, x, y), 0.01);
  EXPECT_GT(tree.node_count(), 3u);
}

TEST(DecisionTree, DepthLimitControlsComplexity) {
  Matrix x;
  std::vector<int> y;
  make_disk(400, 13, x, y);
  DecisionTreeConfig shallow;
  shallow.max_depth = 2;
  DecisionTree small(shallow);
  small.fit(x, y);
  DecisionTree big;
  big.fit(x, y);
  EXPECT_LE(small.depth(), 2u);
  EXPECT_LT(small.node_count(), big.node_count());
}

TEST(DecisionTree, SaveLoadPreservesPredictions) {
  Matrix x;
  std::vector<int> y;
  make_blobs(200, 1.0, 14, x, y);
  DecisionTree tree;
  tree.fit(x, y);
  DecisionTree tree2;
  codec_round_trip(tree, tree2);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(tree.predict(x.row(i)), tree2.predict(x.row(i)));
  }
}

TEST(DecisionTree, ErrorsOnMisuse) {
  DecisionTree tree;
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(Knn, MajorityVoteOnBlobs) {
  Matrix x;
  std::vector<int> y;
  make_blobs(300, 2.0, 15, x, y);
  KnnClassifier knn;
  knn.fit(x, y);
  EXPECT_LT(training_error(knn, x, y), 0.05);
}

TEST(Knn, SaveLoadPreservesPredictions) {
  Matrix x;
  std::vector<int> y;
  make_blobs(100, 1.5, 16, x, y);
  KnnClassifier knn(KnnConfig{.k = 3});
  knn.fit(x, y);
  KnnClassifier knn2;
  codec_round_trip(knn, knn2);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(knn.predict(x.row(i)), knn2.predict(x.row(i)));
  }
}

TEST(Knn, DescriptorScalesWithTrainingSet) {
  Matrix x;
  std::vector<int> y;
  make_blobs(400, 1.5, 17, x, y);
  KnnClassifier knn;
  knn.fit(x, y);
  Matrix x2;
  std::vector<int> y2;
  make_blobs(100, 1.5, 17, x2, y2);
  KnnClassifier knn2;
  knn2.fit(x2, y2);
  EXPECT_GT(knn.descriptor_size_bytes(), 3 * knn2.descriptor_size_bytes());
}

TEST(LogisticRegression, SeparatesBlobs) {
  Matrix x;
  std::vector<int> y;
  make_blobs(400, 2.5, 21, x, y);
  LogisticRegression lr;
  lr.fit(x, y);
  EXPECT_LT(training_error(lr, x, y), 0.02);
}

TEST(LogisticRegression, ProbabilitiesAreCalibratedAndMonotone) {
  // 1-D problem: P(safe | x) must increase with x and straddle 0.5 at the
  // midpoint.
  std::mt19937_64 rng(22);
  std::normal_distribution<double> g(0.0, 1.0);
  Matrix x(2000, 1);
  std::vector<int> y(2000);
  for (std::size_t i = 0; i < 2000; ++i) {
    const bool safe = i % 2 == 0;
    x(i, 0) = g(rng) + (safe ? 1.0 : -1.0);
    y[i] = safe ? kSafe : kNotSafe;
  }
  LogisticRegression lr;
  lr.fit(x, y);
  double prev = 0.0;
  for (double v = -3.0; v <= 3.0; v += 0.5) {
    const double p = lr.probability(std::vector<double>{v});
    EXPECT_GE(p, prev - 1e-9);
    prev = p;
  }
  EXPECT_NEAR(lr.probability(std::vector<double>{0.0}), 0.5, 0.05);
  EXPECT_GT(lr.probability(std::vector<double>{3.0}), 0.9);
  EXPECT_LT(lr.probability(std::vector<double>{-3.0}), 0.1);
}

TEST(LogisticRegression, SaveLoadPreservesPredictions) {
  Matrix x;
  std::vector<int> y;
  make_blobs(300, 1.2, 23, x, y);
  LogisticRegression lr;
  lr.fit(x, y);
  LogisticRegression lr2;
  codec_round_trip(lr, lr2);
  for (std::size_t i = 0; i < x.rows(); i += 5) {
    EXPECT_EQ(lr.predict(x.row(i)), lr2.predict(x.row(i)));
  }
}

TEST(LogisticRegression, SingleClassAndMisuse) {
  Matrix x = Matrix::from_rows({{1.0}, {2.0}});
  LogisticRegression lr;
  lr.fit(x, std::vector<int>{kSafe, kSafe});
  EXPECT_EQ(lr.predict(std::vector<double>{-99.0}), kSafe);
  LogisticRegression untrained;
  EXPECT_THROW((void)untrained.probability(std::vector<double>{1.0}),
               std::logic_error);
  EXPECT_THROW(untrained.fit(Matrix(), std::vector<int>{}),
               std::invalid_argument);
}

TEST(LogisticRegression, SmallestDescriptorOfAllFamilies) {
  Matrix x;
  std::vector<int> y;
  make_disk(500, 24, x, y);
  LogisticRegression lr;
  lr.fit(x, y);
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  EXPECT_LT(lr.descriptor_size_bytes(), nb.descriptor_size_bytes());
}

/// The rows of an n x 2 matrix as points of the plane.
PlanePoints points_of(const Matrix& x) {
  return PlanePoints{x.row_ptr(0), x.rows(), 2 * sizeof(double)};
}

/// kmeans_into with fresh storage.
KMeansResult kmeans(PlanePoints points, const KMeansConfig& config) {
  KMeansScratch scratch;
  KMeansResult result;
  kmeans_into(points, config, scratch, result);
  return result;
}

TEST(KMeans, RecoversWellSeparatedClusters) {
  std::mt19937_64 rng(18);
  std::normal_distribution<double> g(0.0, 0.5);
  const std::vector<std::pair<double, double>> centers{
      {0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  Matrix x(300, 2);
  for (std::size_t i = 0; i < 300; ++i) {
    const auto& c = centers[i % 3];
    x(i, 0) = c.first + g(rng);
    x(i, 1) = c.second + g(rng);
  }
  KMeansConfig cfg;
  cfg.k = 3;
  const KMeansResult result = kmeans(points_of(x), cfg);
  ASSERT_EQ(result.centroids.rows(), 3u);
  // Every true center has a centroid within 0.5.
  for (const auto& c : centers) {
    double best = 1e18;
    for (std::size_t j = 0; j < 3; ++j) {
      const double d = std::hypot(result.centroids(j, 0) - c.first,
                                  result.centroids(j, 1) - c.second);
      best = std::min(best, d);
    }
    EXPECT_LT(best, 0.5);
  }
  // Same-cluster points agree with nearest_centroid.
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(result.assignment[i],
              nearest_centroid(result.centroids, x.row(i)));
  }
}

TEST(KMeans, KClampedToSampleCount) {
  Matrix x = Matrix::from_rows({{0.0, 0.0}, {10.0, 0.0}});
  KMeansConfig cfg;
  cfg.k = 5;
  const KMeansResult result = kmeans(points_of(x), cfg);
  EXPECT_EQ(result.centroids.rows(), 2u);
  EXPECT_EQ(result.counts, (std::vector<std::size_t>{1, 1}));
}

// Points read in place from records wider than a point: the stride skips
// the rest of each record.
TEST(KMeans, ReadsPointsInsideLargerRecords) {
  struct Record {
    double east;
    double north;
    double other;
  };
  std::vector<Record> records;
  Matrix x(60, 2);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = static_cast<double>(i % 3) * 100.0 + static_cast<double>(i);
    x(i, 1) = static_cast<double>(i % 3) * -50.0;
    records.push_back(Record{x(i, 0), x(i, 1), 1e9});
  }
  KMeansConfig cfg;
  cfg.k = 3;
  const KMeansResult strided = kmeans(
      PlanePoints{&records[0].east, records.size(), sizeof(Record)}, cfg);
  const KMeansResult packed = kmeans(points_of(x), cfg);
  EXPECT_EQ(strided.assignment, packed.assignment);
  EXPECT_EQ(strided.centroids.data(), packed.centroids.data());
  EXPECT_EQ(strided.inertia, packed.inertia);
}

TEST(KMeans, DeterministicPerSeed) {
  std::mt19937_64 rng(19);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  Matrix x(100, 2);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = u(rng);
    x(i, 1) = u(rng);
  }
  KMeansConfig cfg;
  cfg.k = 4;
  const KMeansResult a = kmeans(points_of(x), cfg);
  const KMeansResult b = kmeans(points_of(x), cfg);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  std::mt19937_64 rng(20);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  Matrix x(200, 2);
  for (std::size_t i = 0; i < 200; ++i) {
    x(i, 0) = u(rng);
    x(i, 1) = u(rng);
  }
  double prev = 1e18;
  for (const std::size_t k : {1u, 3u, 6u}) {
    KMeansConfig cfg;
    cfg.k = k;
    const double inertia = kmeans(points_of(x), cfg).inertia;
    EXPECT_LT(inertia, prev);
    prev = inertia;
  }
}

TEST(KMeans, EmptyInputThrows) {
  EXPECT_THROW(kmeans(PlanePoints{nullptr, 0, 2 * sizeof(double)},
                      KMeansConfig{}),
               std::invalid_argument);
}

// ------------------------------------------------ k-means differential

// ml::kmeans as it was before it ran over raw rows, kept verbatim (its
// nearest_centroid and squared_distance too) so that the oracle does not
// follow the library: a per-row nearest_centroid, an inertia from a second
// distance pass, and its own copies of the iteration cap and tolerance.
constexpr std::size_t kOracleMaxIterations = 100;
constexpr double kOracleTolerance = 1e-6;

double oracle_squared_distance(std::span<const double> a,
                               std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("distance length mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

std::size_t oracle_nearest_centroid(const Matrix& centroids,
                                    std::span<const double> x) {
  if (centroids.rows() == 0) throw std::logic_error("no centroids");
  std::size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    const double d2 = oracle_squared_distance(centroids.row(c), x);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = c;
    }
  }
  return best;
}

KMeansResult oracle_kmeans(const Matrix& x, const KMeansConfig& config) {
  if (x.rows() == 0) throw std::invalid_argument("kmeans: empty input");
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t k = std::max<std::size_t>(1, std::min(config.k, n));

  std::mt19937_64 rng(config.seed);

  // k-means++ seeding.
  Matrix centroids(k, d);
  std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
  {
    std::uniform_int_distribution<std::size_t> first(0, n - 1);
    const auto f = first(rng);
    std::copy(x.row(f).begin(), x.row(f).end(), centroids.row(0).begin());
    for (std::size_t c = 1; c < k; ++c) {
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        min_d2[i] = std::min(
            min_d2[i], oracle_squared_distance(x.row(i), centroids.row(c - 1)));
        total += min_d2[i];
      }
      std::size_t chosen = n - 1;
      if (total > 0.0) {
        std::uniform_real_distribution<double> u(0.0, total);
        double r = u(rng);
        for (std::size_t i = 0; i < n; ++i) {
          if (r < min_d2[i]) {
            chosen = i;
            break;
          }
          r -= min_d2[i];
        }
      }
      std::copy(x.row(chosen).begin(), x.row(chosen).end(),
                centroids.row(c).begin());
    }
  }

  KMeansResult result;
  result.assignment.assign(n, 0);
  double prev_inertia = std::numeric_limits<double>::infinity();

  for (std::size_t iter = 0; iter < kOracleMaxIterations; ++iter) {
    // Assign — the O(n k d) hot step. The inertia reduction runs
    // afterwards, summing in row order 0 .. n-1.
    for (std::size_t i = 0; i < n; ++i) {
      result.assignment[i] = oracle_nearest_centroid(centroids, x.row(i));
    }
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      inertia += oracle_squared_distance(
          centroids.row(result.assignment[i]), x.row(i));
    }
    result.inertia = inertia;
    result.iterations = iter + 1;

    // Update.
    Matrix sums(k, d, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = result.assignment[i];
      ++counts[c];
      for (std::size_t j = 0; j < d; ++j) sums(c, j) += x(i, j);
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed the empty cluster from the worst-fitted point.
        std::size_t worst = 0;
        double worst_d2 = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d2 = oracle_squared_distance(
              centroids.row(result.assignment[i]), x.row(i));
          if (d2 > worst_d2) {
            worst_d2 = d2;
            worst = i;
          }
        }
        std::copy(x.row(worst).begin(), x.row(worst).end(),
                  centroids.row(c).begin());
        continue;
      }
      for (std::size_t j = 0; j < d; ++j) {
        centroids(c, j) = sums(c, j) / static_cast<double>(counts[c]);
      }
    }

    if (prev_inertia - inertia <=
        kOracleTolerance * std::max(prev_inertia, 1e-12)) {
      break;
    }
    prev_inertia = inertia;
  }

  result.centroids = std::move(centroids);
  return result;
}

/// Bit pattern of a double: equal iff the two values are the same bits.
std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

/// Bit-equality of two k-means results.
void expect_same_clustering(const KMeansResult& got, const KMeansResult& want,
                            const std::string& where) {
  ASSERT_EQ(got.centroids.rows(), want.centroids.rows()) << where;
  ASSERT_EQ(got.centroids.cols(), want.centroids.cols()) << where;
  for (std::size_t i = 0; i < want.centroids.data().size(); ++i) {
    ASSERT_EQ(bits(got.centroids.data()[i]), bits(want.centroids.data()[i]))
        << where << " centroid value " << i;
  }
  EXPECT_EQ(got.assignment, want.assignment) << where;
  EXPECT_EQ(bits(got.inertia), bits(want.inertia)) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
}

/// Runs the library kernel, over the rows of an n x 2 matrix read as
/// points of the plane, against the oracle. Every case reuses one scratch
/// and result, left by cases of other sizes, as a serving rebuild does.
void expect_matches_oracle(const Matrix& x, std::size_t k, std::uint64_t seed,
                           const std::string& where) {
  KMeansConfig cfg;
  cfg.k = k;
  cfg.seed = seed;
  static KMeansScratch scratch;
  static KMeansResult got;
  kmeans_into(points_of(x), cfg, scratch, got);
  expect_same_clustering(got, oracle_kmeans(x, cfg), where);
  // The counts are those of the returned assignment.
  std::vector<std::size_t> counts(got.centroids.rows(), 0);
  for (const std::size_t c : got.assignment) ++counts[c];
  EXPECT_EQ(got.counts, counts) << where;
}

TEST(KMeansDifferential, MatchesTheOldKernelBitForBit) {
  std::mt19937_64 rng(91);
  std::uniform_real_distribution<double> u(-5'000.0, 5'000.0);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 511u, 513u, 2000u}) {
    Matrix x(n, 2);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 2; ++j) x(i, j) = u(rng);
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{5}, n, n + 4}) {
      expect_matches_oracle(
          x, k, rng(), "n=" + std::to_string(n) + " k=" + std::to_string(k));
    }
  }
}

// Duplicate points: k-means++ runs out of distinct seeds, so clusters come
// up empty and are re-seeded from the worst-fitted point.
TEST(KMeansDifferential, ReseedsEmptyClustersLikeTheOldKernel) {
  std::mt19937_64 rng(92);
  std::uniform_int_distribution<int> spot(0, 2);
  for (const std::size_t n : {1u, 5u, 40u, 700u}) {
    Matrix same(n, 2, 42.0);
    Matrix three(n, 2);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = 100.0 * spot(rng);
      for (std::size_t j = 0; j < 2; ++j) three(i, j) = v + j;
    }
    for (const std::size_t k : {std::size_t{2}, std::size_t{3},
                                std::size_t{4}, std::size_t{8}}) {
      const std::string where =
          "n=" + std::to_string(n) + " k=" + std::to_string(k);
      expect_matches_oracle(same, k, rng(), "same " + where);
      expect_matches_oracle(three, k, rng(), "three spots " + where);
    }
  }
}

TEST(KMeansDifferential, MatchesTheOldKernelFarFromTheOrigin) {
  std::mt19937_64 rng(93);
  std::uniform_real_distribution<double> offset(-3'000.0, 3'000.0);
  std::uniform_int_distribution<int> side(0, 1);
  for (const std::size_t n : {2u, 300u, 1500u}) {
    Matrix x(n, 2);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        x(i, j) = (side(rng) == 0 ? -1e7 : 1e7) + offset(rng);
      }
    }
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{3}, std::size_t{6}}) {
      expect_matches_oracle(
          x, k, rng(), "n=" + std::to_string(n) + " k=" + std::to_string(k));
    }
  }
}

TEST(Matrix, TakeRowsCopiesInOrderAndChecksIndices) {
  const Matrix x = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  const std::vector<std::size_t> idx{2, 0, 2};
  const Matrix y = take_rows(x, idx);
  EXPECT_EQ(y.data(), (std::vector<double>{5.0, 6.0, 1.0, 2.0, 5.0, 6.0}));
  const std::vector<std::size_t> bad{1, 3};
  EXPECT_THROW((void)take_rows(x, bad), std::out_of_range);
}

}  // namespace
}  // namespace waldo::ml
