// Lloyd's k-means with k-means++ seeding — the localities-identification
// step of the Model Constructor (Section 3.2): co-located readings are
// clustered and one classifier is trained per cluster.
#pragma once

#include <cstdint>

#include "waldo/ml/matrix.hpp"

namespace waldo::ml {

struct KMeansConfig {
  std::size_t k = 3;
  std::uint64_t seed = 11;
};

struct KMeansResult {
  Matrix centroids;                     ///< k x d
  std::vector<std::size_t> assignment;  ///< row -> cluster id
  double inertia = 0.0;                 ///< sum of squared distances
  std::size_t iterations = 0;
};

/// Storage kmeans_into reuses from one call to the next: each row's
/// squared distance, and the update step's sums and counts.
struct KMeansScratch {
  std::vector<double> row_d2;
  Matrix sums;
  std::vector<std::size_t> counts;
};

/// Clusters the rows of `x`. k is clamped to the number of rows. Empty
/// clusters are re-seeded from the point farthest from its centroid.
[[nodiscard]] KMeansResult kmeans(const Matrix& x, const KMeansConfig& config);

/// kmeans into caller-owned storage: the result goes to `out`, whose
/// assignment keeps its storage, and the working buffers are `scratch`'s.
/// Bit-identical to kmeans(x, config). Once both have held an input at
/// least as large, it allocates nothing that grows with x's rows.
void kmeans_into(const Matrix& x, const KMeansConfig& config,
                 KMeansScratch& scratch, KMeansResult& out);

/// Index of the centroid nearest to `x`.
[[nodiscard]] std::size_t nearest_centroid(const Matrix& centroids,
                                           std::span<const double> x);

}  // namespace waldo::ml
