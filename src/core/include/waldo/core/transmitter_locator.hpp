// Transmitter localisation from campaign measurements — the Section 6
// application ("determining protected areas of primary spectrum users and
// monitoring cross interference"): given location-tagged RSS readings of a
// channel, estimate where the incumbent transmits from and how its signal
// decays, without any registration data.
//
// Method: coarse-to-fine grid search over candidate transmitter positions;
// at each candidate, the best-fit log-distance model (intercept + exponent,
// closed-form least squares on RSS vs log10 distance) scores the candidate
// by residual error. Physically meaningful fits (positive path-loss
// exponent) are preferred. Only readings with detectable signal take part —
// floor-saturated readings carry no range information.
#pragma once

#include <cstddef>
#include <optional>

#include "waldo/campaign/measurement.hpp"

namespace waldo::core {

struct LocatorConfig {
  /// Readings below this level are treated as floor-saturated and ignored.
  /// Low-cost sensors compress near their floor, which flattens the fitted
  /// slope, so only clearly-detectable readings carry range information.
  double min_rss_dbm = -86.0;
};

struct TransmitterEstimate {
  geo::EnuPoint position;
  double path_loss_exponent = 0.0;   ///< n of the fitted log-distance law
  double intercept_dbm = 0.0;        ///< predicted RSS at 1 km
  double rmse_db = 0.0;              ///< fit residual
  std::size_t readings_used = 0;
};

/// Estimates the dominant transmitter of `data`'s channel. Returns empty
/// when too few readings rise above the detection floor (a genuinely dark
/// channel has nothing to locate).
[[nodiscard]] std::optional<TransmitterEstimate> locate_transmitter(
    const campaign::ChannelDataset& data, const LocatorConfig& config = {});

}  // namespace waldo::core
