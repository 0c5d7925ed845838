#include "waldo/sensors/sensor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "waldo/rf/channels.hpp"
#include "waldo/rf/units.hpp"
#include "waldo/runtime/seed.hpp"

namespace waldo::sensors {

SensorSpec rtl_sdr_spec() {
  return SensorSpec{
      .name = "RTL-SDR",
      .pilot_floor_dbm = -98.0,
      .gain_jitter_db = 0.15,
      .raw_slope = 0.75,
      .raw_offset_db = 28.0,  // raw ~ -45.5 at the floor, as in Fig. 5(c)
      .quantization_db = 0.25,
      // Impulsive urban interference is modelled but off by default: with
      // Algorithm 1's 6 km dilation a handful of spikes would poison the
      // whole metro area. Failure-injection tests turn it on explicitly.
      .impulse_probability = 0.0,
      .impulse_mean_db = 8.0};
}

SensorSpec usrp_b200_spec() {
  return SensorSpec{
      .name = "USRP B200",
      .pilot_floor_dbm = -103.0,
      .gain_jitter_db = 1.0,
      .raw_slope = 1.0,
      .raw_offset_db = 30.5,  // raw ~ -72.5 at the floor, as in Fig. 5(b)
      .quantization_db = 0.05,
      .impulse_probability = 0.0,
      .impulse_mean_db = 6.0};
}

SensorSpec spectrum_analyzer_spec() {
  return SensorSpec{
      .name = "FieldFox",
      .pilot_floor_dbm = -130.0,  // channel floor -118 dBm: comfortably
                                  // below the -114 dBm sensing requirement
      .gain_jitter_db = 0.1,
      .raw_slope = 1.0,
      .raw_offset_db = 0.0,  // reads dBm natively
      .quantization_db = 0.01,
      .impulse_probability = 0.0,
      .impulse_mean_db = 0.0};
}

Sensor::Sensor(SensorSpec spec, std::uint64_t seed, dsp::CaptureConfig capture)
    : spec_(std::move(spec)), capture_(capture), seed_(seed), rng_(seed) {
  if (spec_.raw_slope == 0.0) {
    throw std::invalid_argument("sensor raw slope must be nonzero");
  }
  // The analyzer is factory-calibrated; it reads dBm natively.
  if (spec_.raw_offset_db == 0.0 && spec_.raw_slope == 1.0) {
    calibration_ = LinearCalibration{1.0, 0.0};
  }
}

double Sensor::measured_pilot_band_dbm(double signal_pilot_dbm,
                                       std::mt19937_64& rng) const {
  // The detector statistic saturates at the device floor: the signal and
  // the equivalent noise power compound.
  double measured = rf::add_dbm(signal_pilot_dbm, spec_.pilot_floor_dbm);
  std::normal_distribution<double> jitter(0.0, spec_.gain_jitter_db);
  measured += jitter(rng) + gain_drift_db_;
  if (spec_.impulse_probability > 0.0) {
    std::bernoulli_distribution hit(spec_.impulse_probability);
    if (hit(rng)) {
      std::exponential_distribution<double> spike(1.0 /
                                                  spec_.impulse_mean_db);
      measured += spike(rng);
    }
  }
  return measured;
}

double Sensor::measure_wired_raw(double input_dbm) {
  // A wired CW lands entirely in the pilot band.
  const double measured = measured_pilot_band_dbm(input_dbm, rng_);
  double raw = spec_.raw_slope * measured + spec_.raw_offset_db;
  if (spec_.quantization_db > 0.0) {
    raw = std::round(raw / spec_.quantization_db) * spec_.quantization_db;
  }
  return raw;
}

SensorReading Sensor::sense_channel(double channel_power_dbm) {
  return sense_channel_with(channel_power_dbm, rng_);
}

SensorReading Sensor::sense_channel(double channel_power_dbm,
                                    std::uint64_t stream_id) const {
  std::mt19937_64 rng(runtime::split_seed(seed_, stream_id));
  return sense_channel_with(channel_power_dbm, rng);
}

double Sensor::sense_channel_into(double channel_power_dbm,
                                  std::uint64_t stream_id,
                                  dsp::CaptureWorkspace& ws) const {
  std::mt19937_64 rng(runtime::split_seed(seed_, stream_id));
  return sense_channel_ws(channel_power_dbm, rng, ws);
}

double Sensor::sense_channel_ws(double channel_power_dbm,
                                std::mt19937_64& rng,
                                dsp::CaptureWorkspace& ws) const {
  // Pilot-band signal content: the pilot line (11.3 dB below channel power)
  // dominates; the sliver of data spectrum inside the pilot band is ~23 dB
  // below channel power and is included for completeness.
  const double pilot_dbm = channel_power_dbm - rf::kPilotBelowChannelDb;
  const double pilot_bins = static_cast<double>(dsp::kPilotBins);
  const double pilot_band_hz = pilot_bins * capture_.sample_rate_hz /
                               static_cast<double>(capture_.num_samples);
  const double data_in_band_dbm =
      channel_power_dbm +
      rf::ratio_to_db(pilot_band_hz / rf::kChannelBandwidthHz);
  const double signal_dbm = rf::add_dbm(pilot_dbm, data_in_band_dbm);

  const double measured = measured_pilot_band_dbm(signal_dbm, rng);
  double raw = spec_.raw_slope * measured + spec_.raw_offset_db;
  if (spec_.quantization_db > 0.0) {
    raw = std::round(raw / spec_.quantization_db) * spec_.quantization_db;
  }

  // The capture carries the device's own noise floor spread over the full
  // tuner bandwidth (floor is per pilot band of kPilotBins bins).
  const double capture_noise_dbm =
      spec_.pilot_floor_dbm +
      rf::ratio_to_db(static_cast<double>(capture_.num_samples) / pilot_bins);
  dsp::synthesize_capture_into(capture_, channel_power_dbm, capture_noise_dbm,
                               rng, ws);
  return raw;
}

SensorReading Sensor::sense_channel_with(double channel_power_dbm,
                                         std::mt19937_64& rng) const {
  dsp::CaptureWorkspace ws;
  SensorReading out;
  out.raw = sense_channel_ws(channel_power_dbm, rng, ws);
  out.iq = std::move(ws.time);
  return out;
}

double Sensor::calibrated_rss_dbm(double raw) const {
  if (!calibration_.has_value()) {
    throw std::logic_error("sensor '" + spec_.name + "' is not calibrated");
  }
  // Paper Section 2.1: add 12 dB to the calibrated pilot power to estimate
  // total channel power (the pilot is required to sit 11.3 dB below it; the
  // extra 0.7 dB is the paper's own margin and is kept as-is).
  return calibration_->to_dbm(raw) + rf::kPilotToChannelCorrectionDb;
}

LinearCalibration Sensor::calibrate(std::vector<double> sweep_levels_dbm,
                                    std::size_t readings_per_level) {
  if (sweep_levels_dbm.empty()) {
    // Strong-signal regime, well above every device floor.
    sweep_levels_dbm = {-80.0, -70.0, -60.0, -50.0, -40.0, -30.0};
  }
  std::vector<CalibrationSample> samples;
  samples.reserve(sweep_levels_dbm.size() * readings_per_level);
  for (const double level : sweep_levels_dbm) {
    for (std::size_t i = 0; i < readings_per_level; ++i) {
      samples.push_back(CalibrationSample{
          .input_dbm = level, .raw_reading = measure_wired_raw(level)});
    }
  }
  const LinearCalibration cal = fit_calibration(samples);
  calibration_ = cal;
  return cal;
}

}  // namespace waldo::sensors
