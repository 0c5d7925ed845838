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

/// Squared distance between points of the plane: squared_distance's
/// (0 + de^2) + dn^2, which is de^2 + dn^2 as de^2 is never -0.
[[nodiscard]] inline double plane_d2(const double* a, const double* b) {
  const double de = a[0] - b[0];
  const double dn = a[1] - b[1];
  return de * de + dn * dn;
}

}  // namespace

void kmeans_into(PlanePoints points, const KMeansConfig& config,
                 KMeansScratch& scratch, KMeansResult& result) {
  if (points.size == 0) throw std::invalid_argument("kmeans: empty input");
  const std::size_t n = points.size;
  const std::size_t k = std::max<std::size_t>(1, std::min(config.k, n));
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::mt19937_64 rng(config.seed);

  // k-means++ seeding: one pass per seed after the first takes each
  // point's squared distance to its nearest seed so far and their total.
  Matrix& centroids = result.centroids;
  centroids.reshape(k, 2);
  const auto copy_point = [&](std::size_t from, std::size_t c) {
    centroids(c, 0) = points[from][0];
    centroids(c, 1) = points[from][1];
  };
  std::vector<double>& seed_d2 = scratch.seed_d2;
  runtime::resize_reused(seed_d2, n);
  {
    std::uniform_int_distribution<std::size_t> first(0, n - 1);
    copy_point(first(rng), 0);
    for (std::size_t c = 1; c < k; ++c) {
      const double* prev = centroids.row_ptr(c - 1);
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double nearest = c == 1 ? kInf : seed_d2[i];
        seed_d2[i] = std::min(nearest, plane_d2(points[i], prev));
        total += seed_d2[i];
      }
      std::size_t chosen = n - 1;
      if (total > 0.0) {
        std::uniform_real_distribution<double> u(0.0, total);
        double r = u(rng);
        for (std::size_t i = 0; i < n; ++i) {
          if (r < seed_d2[i]) {
            chosen = i;
            break;
          }
          r -= seed_d2[i];
        }
      }
      copy_point(chosen, c);
    }
  }

  runtime::resize_reused(result.assignment, n);
  std::vector<std::size_t>& counts = result.counts;
  runtime::resize_reused(counts, k);
  Matrix& sums = scratch.sums;
  sums.reshape(k, 2);
  result.inertia = 0.0;
  result.iterations = 0;
  double prev_inertia = kInf;

  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    // One pass: assign each point to its nearest centroid and add its
    // squared distance to the inertia and its coordinates to its
    // cluster's sums, all in point order.
    std::fill(counts.begin(), counts.end(), 0);
    std::fill_n(sums.row_ptr(0), 2 * k, 0.0);
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* point = points[i];
      std::size_t best = 0;
      double best_d2 = kInf;
      for (std::size_t c = 0; c < k; ++c) {
        const double d2 = plane_d2(centroids.row_ptr(c), point);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = c;
        }
      }
      // A point no centroid is finitely near (NaN or overflowing
      // coordinates) stays on centroid 0 and adds that distance.
      if (!(best_d2 < kInf)) best_d2 = plane_d2(centroids.row_ptr(0), point);
      result.assignment[i] = best;
      inertia += best_d2;
      ++counts[best];
      double* sum = sums.row_ptr(best);
      sum[0] += point[0];
      sum[1] += point[1];
    }
    result.inertia = inertia;
    result.iterations = iter + 1;

    // Update.
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed the empty cluster from the worst-fitted point, measured
        // against the centroids as updated so far.
        std::size_t worst = 0;
        double worst_d2 = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d2 =
              plane_d2(centroids.row_ptr(result.assignment[i]), points[i]);
          if (d2 > worst_d2) {
            worst_d2 = d2;
            worst = i;
          }
        }
        copy_point(worst, c);
        continue;
      }
      const double count = static_cast<double>(counts[c]);
      centroids(c, 0) = sums(c, 0) / count;
      centroids(c, 1) = sums(c, 1) / count;
    }

    if (prev_inertia - inertia <=
        kTolerance * std::max(prev_inertia, 1e-12)) {
      break;
    }
    prev_inertia = inertia;
  }
}

}  // namespace waldo::ml
