// Lloyd's k-means with k-means++ seeding over points of the plane — the
// localities-identification step of the Model Constructor (Section 3.2):
// readings are clustered by position and one classifier trained per cluster.
#pragma once

#include <cstdint>

#include "waldo/ml/matrix.hpp"

namespace waldo::ml {

struct KMeansConfig {
  std::size_t k = 3;
  std::uint64_t seed = 11;
};

/// Points of the plane where the caller stores them: point i is the two
/// adjacent doubles (east, north) `i * stride` bytes after `first`, as in
/// an array of positions or of records that hold one.
struct PlanePoints {
  const double* first;
  std::size_t size;
  std::size_t stride;

  /// Point i's east and north coordinates, [0] and [1].
  [[nodiscard]] const double* operator[](std::size_t i) const noexcept {
    return reinterpret_cast<const double*>(
        reinterpret_cast<const unsigned char*>(first) + i * stride);
  }
};

struct KMeansResult {
  Matrix centroids;                     ///< k x 2, (east, north)
  std::vector<std::size_t> assignment;  ///< point -> cluster id
  std::vector<std::size_t> counts;      ///< points assigned to each cluster
  double inertia = 0.0;                 ///< sum of squared distances
  std::size_t iterations = 0;
};

/// Storage kmeans_into reuses from one call to the next: each point's
/// squared distance to its nearest seed, and the update step's sums.
struct KMeansScratch {
  std::vector<double> seed_d2;
  Matrix sums;
};

/// Clusters the points into `out`, whose vectors keep their storage, with
/// `scratch` as working storage; once both have held as many points, it
/// allocates nothing that grows with them. k is clamped to the number of
/// points. Empty clusters are re-seeded from the point farthest from its
/// centroid. Throws std::invalid_argument when there are no points.
/// Each Lloyd iteration is one pass over the points. It stops once the
/// inertia improves by less than 1e-6 of the previous iteration's, which,
/// the first predecessor being +infinity, holds after the first iteration.
void kmeans_into(PlanePoints points, const KMeansConfig& config,
                 KMeansScratch& scratch, KMeansResult& out);

/// Index of the centroid nearest to `x`.
[[nodiscard]] std::size_t nearest_centroid(const Matrix& centroids,
                                           std::span<const double> x);

}  // namespace waldo::ml
