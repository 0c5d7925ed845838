// Spectrum-sensor device models. Each model turns the environment's true
// channel power into (a) a raw device reading in device-specific units and
// (b) a 256-sample I/Q capture carrying the device's own noise floor — the
// two artifacts every reading of the paper's dataset consists of.
//
// The three concrete specs are parameterised from the paper's Section 2
// findings:
//   RTL-SDR   — pilot-band floor ~ -98 dBm, very tight reading CDF,
//               compressed (non-unit) raw scale, rare impulsive spikes;
//   USRP B200 — floor ~ -103 dBm, visibly wider reading CDF (gain jitter);
//   FieldFox  — floor below the -114 dBm regulatory level; ground truth.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "waldo/dsp/detectors.hpp"
#include "waldo/dsp/iq.hpp"
#include "waldo/sensors/calibration.hpp"

namespace waldo::sensors {

struct SensorSpec {
  std::string name;
  /// Equivalent noise power within the pilot measurement band, dBm. A CW
  /// input at this level doubles the detector statistic; this is the
  /// device's sensitivity knee.
  double pilot_floor_dbm = -98.0;
  /// Std-dev of per-reading gain error, dB (reading CDF width in Fig. 5).
  double gain_jitter_db = 0.15;
  /// Raw device units: raw = raw_slope * measured_dbm + raw_offset_db.
  double raw_slope = 1.0;
  double raw_offset_db = 0.0;
  /// Raw-reading quantisation step, dB-equivalent device units.
  double quantization_db = 0.1;
  /// Probability of an impulsive interference spike on a reading, and its
  /// mean magnitude (exponentially distributed), dB.
  double impulse_probability = 0.0;
  double impulse_mean_db = 6.0;
};

/// Spec presets matching the paper's hardware.
[[nodiscard]] SensorSpec rtl_sdr_spec();
[[nodiscard]] SensorSpec usrp_b200_spec();
[[nodiscard]] SensorSpec spectrum_analyzer_spec();

/// One sensing event.
struct SensorReading {
  double raw = 0.0;                ///< device-units pilot-band reading
  std::vector<dsp::cplx> iq;      ///< 256 I/Q samples (fft-able capture)
};

/// A stateful sensor instance. Deterministic given its seed; distinct
/// physical units of the same model should use distinct seeds.
class Sensor {
 public:
  Sensor(SensorSpec spec, std::uint64_t seed,
         dsp::CaptureConfig capture = {});

  [[nodiscard]] const SensorSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const dsp::CaptureConfig& capture_config() const noexcept {
    return capture_;
  }

  /// Wired measurement of a signal-generator CW at `input_dbm` (the tone
  /// lands in the pilot band). Returns the raw device reading only.
  [[nodiscard]] double measure_wired_raw(double input_dbm);

  /// Over-the-air measurement of a TV channel whose true total power at
  /// the antenna is `channel_power_dbm`. Produces the raw pilot-band
  /// reading and the I/Q capture. Draws from the sensor's sequential
  /// engine, so consecutive calls produce fresh noise.
  [[nodiscard]] SensorReading sense_channel(double channel_power_dbm);

  /// Stream-seeded variant: the same measurement, but every random draw
  /// comes from an engine seeded with split_seed(unit seed, stream_id)
  /// instead of the sequential engine. The reading is a pure function of
  /// (spec, calibration, drift, seed, stream_id) — independent of call
  /// order and of any other stream — which is what lets a war-drive sweep
  /// fan readings out across threads and still produce byte-identical
  /// datasets (docs/CONCURRENCY.md).
  [[nodiscard]] SensorReading sense_channel(double channel_power_dbm,
                                            std::uint64_t stream_id) const;

  /// Allocation-free stream-seeded measurement: the raw reading is
  /// returned and the capture lands in `ws` (ws.time holds the I/Q
  /// samples; ws.shifted the synthesis spectrum). Bit-identical to
  /// sense_channel(power, stream_id) — same draws, same arithmetic — but
  /// reuses the workspace's buffers, so the steady state performs zero
  /// heap allocation per reading.
  double sense_channel_into(double channel_power_dbm, std::uint64_t stream_id,
                            dsp::CaptureWorkspace& ws) const;

  void set_calibration(const LinearCalibration& cal) noexcept {
    calibration_ = cal;
  }
  [[nodiscard]] const std::optional<LinearCalibration>& calibration()
      const noexcept {
    return calibration_;
  }

  /// Simulates ageing/temperature gain drift since calibration: every
  /// subsequent measurement shifts by `drift_db`. The Section 2.1
  /// robustness claim is that calibration survives months of this.
  void set_gain_drift_db(double drift_db) noexcept { gain_drift_db_ = drift_db; }
  [[nodiscard]] double gain_drift_db() const noexcept {
    return gain_drift_db_;
  }

  /// Calibrated channel-power estimate from a raw reading: linear map back
  /// to dBm plus the 12 dB pilot-to-channel correction. Throws if the
  /// sensor has not been calibrated.
  [[nodiscard]] double calibrated_rss_dbm(double raw) const;

  /// Runs the full signal-generator calibration sweep on this sensor and
  /// installs the fitted map. Sweep levels default to the strong regime
  /// where the device response is linear. Returns the fit.
  LinearCalibration calibrate(std::vector<double> sweep_levels_dbm = {},
                              std::size_t readings_per_level = 50);

 private:
  /// Pilot-band power actually measured for a given in-band signal power:
  /// signal compounded with the device floor, plus gain jitter/impulses.
  /// Draws from `rng`.
  [[nodiscard]] double measured_pilot_band_dbm(double signal_pilot_dbm,
                                               std::mt19937_64& rng) const;

  /// Shared implementation of both sense_channel overloads.
  [[nodiscard]] SensorReading sense_channel_with(double channel_power_dbm,
                                                 std::mt19937_64& rng) const;

  /// Core of every sense path: raw reading plus capture synthesis into a
  /// workspace.
  double sense_channel_ws(double channel_power_dbm, std::mt19937_64& rng,
                          dsp::CaptureWorkspace& ws) const;

  SensorSpec spec_;
  dsp::CaptureConfig capture_;
  std::uint64_t seed_;
  std::mt19937_64 rng_;
  std::optional<LinearCalibration> calibration_;
  double gain_drift_db_ = 0.0;
};

}  // namespace waldo::sensors
