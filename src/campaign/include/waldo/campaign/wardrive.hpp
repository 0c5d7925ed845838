// War-driving simulation: drives a calibrated sensor along a route through
// the RF environment and records one Measurement per route point — the
// synthetic stand-in for the paper's 800 km Atlanta collection drives.
#pragma once

#include <span>

#include "waldo/campaign/measurement.hpp"
#include "waldo/geo/drive_path.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/sensors/sensor.hpp"

namespace waldo::campaign {

struct CollectOptions {
  /// Worker threads for the per-reading sensing fan-out (0 = all hardware
  /// threads). The dataset is byte-identical for every thread count: each
  /// reading's sensing noise is seeded from (channel, route index), not
  /// drawn from a shared sequential engine. See docs/CONCURRENCY.md.
  unsigned threads = 0;
};

/// Collects one channel sweep along `route` with `sensor` (which must be
/// calibrated). Every reading records the calibrated RSS estimate and the
/// CFT/AFT spectral features computed from the capture; the capture itself
/// is not kept (Measurement::iq stays empty). Collection is a
/// pure function of (sensor unit seed, channel, route): re-collecting the
/// same sweep reproduces it exactly.
[[nodiscard]] ChannelDataset collect_channel(
    const rf::Environment& environment, sensors::Sensor& sensor, int channel,
    std::span<const geo::EnuPoint> route, const CollectOptions& options = {});

/// The standard campaign route for an environment: a coverage-seeking
/// drive over the environment's region (paper geometry: 5282 readings,
/// >= 20 m apart, spread over ~700 km^2).
[[nodiscard]] geo::DrivePath standard_route(const rf::Environment& environment,
                                            std::size_t num_readings = 5282,
                                            std::uint64_t seed = 99);

}  // namespace waldo::campaign
