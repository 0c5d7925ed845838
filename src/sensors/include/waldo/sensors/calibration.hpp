// Linear calibration of raw sensor readings against a signal generator,
// reproducing the paper's wired Agilent E4422B procedure: sweep known input
// levels, record raw device readings, least-squares fit the linear map from
// raw units back to dBm.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

namespace waldo::sensors {

/// dBm = slope * raw + intercept.
struct LinearCalibration {
  double slope = 1.0;
  double intercept = 0.0;

  [[nodiscard]] double to_dbm(double raw) const noexcept {
    return slope * raw + intercept;
  }
};

/// One calibration observation: a known generator level and the raw value
/// the device reported.
struct CalibrationSample {
  double input_dbm = 0.0;
  double raw_reading = 0.0;
};

/// Ordinary least squares fit of input_dbm on raw_reading. Requires at
/// least two samples with distinct raw readings.
[[nodiscard]] LinearCalibration fit_calibration(
    std::span<const CalibrationSample> samples);

}  // namespace waldo::sensors
