#include "waldo/ml/kmeans.hpp"

#include <algorithm>
#include <limits>
#include <random>
#include <stdexcept>

#include "waldo/runtime/reuse.hpp"

namespace waldo::ml {

std::size_t nearest_centroid(const Matrix& centroids,
                             std::span<const double> x) {
  if (centroids.rows() == 0) throw std::logic_error("no centroids");
  std::size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    const double d2 = squared_distance(centroids.row(c), x);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = c;
    }
  }
  return best;
}

namespace {

/// Lloyd iterations before k-means gives up on converging.
constexpr std::size_t kMaxIterations = 100;
/// Relative inertia improvement below which k-means stops.
constexpr double kTolerance = 1e-6;

}  // namespace

KMeansResult kmeans(const Matrix& x, const KMeansConfig& config) {
  KMeansScratch scratch;
  KMeansResult result;
  kmeans_into(x, config, scratch, result);
  return result;
}

void kmeans_into(const Matrix& x, const KMeansConfig& config,
                 KMeansScratch& scratch, KMeansResult& result) {
  if (x.rows() == 0) throw std::invalid_argument("kmeans: empty input");
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t k = std::max<std::size_t>(1, std::min(config.k, n));

  std::mt19937_64 rng(config.seed);

  // k-means++ seeding.
  Matrix& centroids = result.centroids;
  centroids.reshape(k, d);
  const auto copy_row = [&](std::size_t from, std::size_t c) {
    std::copy(x.row_ptr(from), x.row_ptr(from) + d, centroids.row_ptr(c));
  };
  // Each row's squared distance to its nearest seed while seeding, then to
  // its assigned centroid after each assignment.
  std::vector<double>& row_d2 = scratch.row_d2;
  runtime::resize_reused(row_d2, n);
  std::fill(row_d2.begin(), row_d2.end(),
            std::numeric_limits<double>::infinity());
  {
    std::uniform_int_distribution<std::size_t> first(0, n - 1);
    copy_row(first(rng), 0);
    for (std::size_t c = 1; c < k; ++c) {
      const double* prev = centroids.row_ptr(c - 1);
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        row_d2[i] =
            std::min(row_d2[i], squared_distance(x.row_ptr(i), prev, d));
        total += row_d2[i];
      }
      std::size_t chosen = n - 1;
      if (total > 0.0) {
        std::uniform_real_distribution<double> u(0.0, total);
        double r = u(rng);
        for (std::size_t i = 0; i < n; ++i) {
          if (r < row_d2[i]) {
            chosen = i;
            break;
          }
          r -= row_d2[i];
        }
      }
      copy_row(chosen, c);
    }
  }

  runtime::resize_reused(result.assignment, n);
  std::fill(result.assignment.begin(), result.assignment.end(), 0);
  result.inertia = 0.0;
  result.iterations = 0;
  double prev_inertia = std::numeric_limits<double>::infinity();

  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    // Assign — the O(n k d) hot step. Each row keeps the squared distance
    // to its centroid, and the inertia sums those in row order afterwards.
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = x.row_ptr(i);
      std::size_t best = 0;
      double best_d2 = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        const double d2 = squared_distance(centroids.row_ptr(c), row, d);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = c;
        }
      }
      result.assignment[i] = best;
      // A row no centroid is finitely near (NaN or overflowing
      // coordinates) stays on centroid 0 and adds that distance.
      row_d2[i] = best_d2 < std::numeric_limits<double>::infinity()
                      ? best_d2
                      : squared_distance(centroids.row_ptr(0), row, d);
    }
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) inertia += row_d2[i];
    result.inertia = inertia;
    result.iterations = iter + 1;

    // Update.
    Matrix& sums = scratch.sums;
    sums.reshape(k, d);
    std::fill_n(sums.row_ptr(0), k * d, 0.0);
    std::vector<std::size_t>& counts = scratch.counts;
    runtime::resize_reused(counts, k);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = result.assignment[i];
      ++counts[c];
      const double* row = x.row_ptr(i);
      double* sum = sums.row_ptr(c);
      for (std::size_t j = 0; j < d; ++j) sum[j] += row[j];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed the empty cluster from the worst-fitted point, measured
        // against the centroids as updated so far.
        std::size_t worst = 0;
        double worst_d2 = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d2 = squared_distance(
              centroids.row_ptr(result.assignment[i]), x.row_ptr(i), d);
          if (d2 > worst_d2) {
            worst_d2 = d2;
            worst = i;
          }
        }
        copy_row(worst, c);
        continue;
      }
      const double* sum = sums.row_ptr(c);
      double* centroid = centroids.row_ptr(c);
      for (std::size_t j = 0; j < d; ++j) {
        centroid[j] = sum[j] / static_cast<double>(counts[c]);
      }
    }

    if (prev_inertia - inertia <=
        kTolerance * std::max(prev_inertia, 1e-12)) {
      break;
    }
    prev_inertia = inertia;
  }
}

}  // namespace waldo::ml
