#include "waldo/sensors/calibration.hpp"

#include <cmath>

namespace waldo::sensors {

LinearCalibration fit_calibration(
    std::span<const CalibrationSample> samples) {
  if (samples.size() < 2) {
    throw std::invalid_argument("calibration needs at least two samples");
  }
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (const CalibrationSample& s : samples) {
    sx += s.raw_reading;
    sy += s.input_dbm;
    sxx += s.raw_reading * s.raw_reading;
    sxy += s.raw_reading * s.input_dbm;
  }
  const auto n = static_cast<double>(samples.size());
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) {
    throw std::invalid_argument(
        "calibration sweep is degenerate (constant raw readings)");
  }
  LinearCalibration cal;
  cal.slope = (n * sxy - sx * sy) / denom;
  cal.intercept = (sy - cal.slope * sx) / n;
  return cal;
}

}  // namespace waldo::sensors
