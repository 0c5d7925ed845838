// Algorithm 1 of the paper: a location is NOT safe for white-space
// operation if any reading within the separation distance (6 km for
// portable WSDs) sees power above the decodable-TV threshold (-84 dBm).
// The rule is deliberately biased toward incumbent protection: one strong
// reading poisons its whole 6 km neighbourhood, while an isolated weak
// reading is rescued by its non-noisy neighbours.
#pragma once

#include <span>
#include <vector>

#include "waldo/geo/latlon.hpp"
#include "waldo/rf/channels.hpp"

namespace waldo::campaign {

struct LabelingConfig {
  double threshold_dbm = rf::kDecodableThresholdDbm;  ///< -84 dBm
  double separation_m = rf::kSeparationDistanceM;     ///< 6 km
  /// Constant added to every reading before thresholding — the paper's
  /// +7.5 dB antenna correction factor study sets this.
  double correction_db = 0.0;
};

/// Labels every reading kSafe / kNotSafe per Algorithm 1. `positions` and
/// `rss_dbm` must be parallel arrays.
[[nodiscard]] std::vector<int> label_readings(
    std::span<const geo::EnuPoint> positions, std::span<const double> rss_dbm,
    const LabelingConfig& config = {});

/// Extends `labels`, which must hold label_readings of the first
/// labels.size() readings, to label_readings of all of them. Appending a
/// reading can only turn SAFE labels NOT SAFE, so only pairs with a new
/// reading in them are tested: O(n) per appended reading. An empty
/// `labels` or a long append relabels from scratch. Throws
/// std::invalid_argument on a size mismatch or when `labels` is longer
/// than `positions`.
void extend_labels(std::span<const geo::EnuPoint> positions,
                   std::span<const double> rss_dbm,
                   const LabelingConfig& config, std::vector<int>& labels);

/// Fraction of readings labeled kSafe — the channel's white-space
/// availability under a given labeling.
[[nodiscard]] double safe_fraction(std::span<const int> labels) noexcept;

}  // namespace waldo::campaign
