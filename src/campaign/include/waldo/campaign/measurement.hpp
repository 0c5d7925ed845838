// Measurement records — what one war-driving reading consists of in the
// paper: GPS location, a calibrated signal-strength reading, and 256 I/Q
// samples, of which only the two DFT features the I/Q exists to provide
// are kept, computed at collection time.
#pragma once

#include <string>
#include <vector>

#include "waldo/dsp/fft.hpp"
#include "waldo/geo/latlon.hpp"

namespace waldo::campaign {

struct Measurement {
  geo::EnuPoint position;
  double raw = 0.0;            ///< raw device-unit reading
  double rss_dbm = 0.0;        ///< calibrated channel-power estimate
  double cft_db = 0.0;         ///< central DFT bin power (CFT feature)
  double aft_db = 0.0;         ///< mean central 15 % DFT bins (AFT feature)
  double true_rss_dbm = 0.0;   ///< environment ground truth (validation only)
  /// Raw capture. collect_channel never fills it (the features above are
  /// all the database reads); the field remains because the serving
  /// benchmark's input generator clears it, and it goes when that does.
  std::vector<dsp::cplx> iq;
};

/// All readings of one sensor on one channel.
struct ChannelDataset {
  int channel = 0;
  std::string sensor_name;
  std::vector<Measurement> readings;

  [[nodiscard]] std::size_t size() const noexcept { return readings.size(); }

  [[nodiscard]] std::vector<geo::EnuPoint> positions() const;
  [[nodiscard]] std::vector<double> rss_values() const;
};

}  // namespace waldo::campaign
