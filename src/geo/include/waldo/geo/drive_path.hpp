// Synthetic war-driving path generation. Real spectrum-measurement
// campaigns follow roads, so collected datasets are sparse, corridor-shaped
// and unevenly distributed — properties the paper calls out as the reason
// for choosing compact classifiers. The generator reproduces that geometry:
// a Manhattan-style road grid over the metro area and a coverage-seeking
// random drive on it.
#pragma once

#include <cstdint>
#include <vector>

#include "waldo/geo/latlon.hpp"

namespace waldo::geo {

struct DrivePathConfig {
  /// Side of the (square) metro region, meters. 26.5 km ~ 700 km^2.
  double region_side_m = 26'500.0;
  /// Road grid block size, meters.
  double block_m = 800.0;
  /// Distance between consecutive recorded readings, meters. Must be
  /// > 20 m (shadowing decorrelation distance, Gudmundson).
  double reading_spacing_m = 150.0;
  /// Number of readings to produce (paper: 5282 per channel per sensor).
  std::size_t num_readings = 5282;
  /// Random seed for the coverage-seeking walk.
  std::uint64_t seed = 1;
};

struct DrivePath {
  std::vector<EnuPoint> readings;  ///< one recording position per reading
  double total_length_m = 0.0;     ///< driven distance
  /// Number of distinct road-grid blocks visited (coverage proxy).
  std::size_t blocks_visited = 0;
};

/// Generates a drive path per `cfg`. The walk starts at the region center,
/// moves along grid streets one block at a time, and prefers directions
/// leading to less-visited blocks so that the campaign spreads over the
/// whole region instead of looping near the start.
[[nodiscard]] DrivePath generate_drive_path(const DrivePathConfig& cfg);

}  // namespace waldo::geo
