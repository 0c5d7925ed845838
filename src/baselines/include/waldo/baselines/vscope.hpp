// Reimplementation of V-Scope's core (Zhang et al., MobiCom'14), the
// measurement-augmented-database comparator of the paper's Section 4.4:
// cluster the collected measurements, fit an area-specific propagation
// model (log-distance, least squares) per cluster, and classify locations
// by the *predicted* signal level. Better than a generic database — the
// model is local — but still blind to per-point reality, which is where
// Waldo's signal features win.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "waldo/campaign/measurement.hpp"
#include "waldo/geo/latlon.hpp"

namespace waldo::baselines {

struct VScopeConfig {
  std::size_t num_clusters = 3;
};

class VScope {
 public:
  explicit VScope(VScopeConfig config = {}) : config_(config) {}

  /// Fits per-cluster log-distance models to measured RSS vs distance to
  /// the (known, registered) transmitter locations on this channel.
  void fit(const campaign::ChannelDataset& data,
           std::span<const geo::EnuPoint> transmitters);

  /// Predicted RSS at a location from the fitted local model.
  [[nodiscard]] double predict_rss_dbm(const geo::EnuPoint& p) const;

  /// Not safe when the prediction (or any point within the separation
  /// distance, via the fitted monotone contour) exceeds the threshold.
  [[nodiscard]] int classify(const geo::EnuPoint& p) const;

  struct ClusterFit {
    geo::EnuPoint centroid;
    double intercept_dbm = 0.0;  ///< predicted RSS at 1 km
    double exponent = 2.0;       ///< path-loss exponent n
    std::size_t samples = 0;
  };
  [[nodiscard]] const std::vector<ClusterFit>& fits() const noexcept {
    return fits_;
  }

 private:
  [[nodiscard]] std::size_t cluster_of(const geo::EnuPoint& p) const;
  [[nodiscard]] double nearest_tx_distance_m(const geo::EnuPoint& p) const;

  VScopeConfig config_;
  std::vector<ClusterFit> fits_;
  std::vector<geo::EnuPoint> transmitters_;
};

}  // namespace waldo::baselines
