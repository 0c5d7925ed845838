// Synthesis of short complex-baseband captures of an ATSC-like TV signal as
// seen by an SDR tuned to a channel's pilot. The capture is built in the
// frequency domain so the band structure (pilot tone, in-channel data
// spectrum, out-of-channel silence, white noise floor) is exact, then
// inverse-transformed to the 256 time-domain I/Q samples the paper's energy
// detector and feature extractor consume.
//
// Amplitude convention: |x|^2 averaged over the capture equals power in
// linear milliwatts, so dsp::mean_power() composes with rf::mw_to_dbm().
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "waldo/dsp/fft.hpp"

namespace waldo::dsp {

/// A capture tuned to the channel's pilot: the pilot sits at the capture
/// centre, rf::kPilotOffsetHz (309 kHz) above the channel's lower edge, so
/// the lower ~0.89 MHz of a 2.4 MHz window is out of channel.
struct CaptureConfig {
  std::size_t num_samples = 256;     ///< paper: 256 I/Q samples per reading
  double sample_rate_hz = 2.4e6;     ///< RTL-SDR-class tuner bandwidth
};

/// Reusable scratch buffers for the capture -> feature hot path. One
/// workspace belongs to exactly one lane of a parallel stage (or one serial
/// caller); after it has warmed to the capture size, every synthesis /
/// detector call through it is allocation-free. See docs/CONCURRENCY.md.
struct CaptureWorkspace {
  /// fftshift-ordered synthesis spectrum (bin n/2 = capture centre), the
  /// intermediate synthesize_capture_into un-shifts and inverse-transforms.
  std::vector<cplx> shifted;
  /// Time-domain capture (the I/Q samples of the latest synthesis).
  std::vector<cplx> time;
  /// Detector scratch: FFT working buffer and per-bin power.
  std::vector<cplx> scratch;
  std::vector<double> power;
};

/// Generates one capture of a TV channel.
///
/// `channel_power_dbm`: total 6 MHz channel power at the antenna; pass a
///     very low value (e.g. -200) for a vacant channel.
/// `noise_power_dbm`: total in-capture noise power (thermal + receiver NF).
[[nodiscard]] std::vector<cplx> synthesize_capture(
    const CaptureConfig& config, double channel_power_dbm,
    double noise_power_dbm, std::mt19937_64& rng);

/// Allocation-free variant: synthesizes into `ws.shifted` (frequency
/// domain) and `ws.time` (time domain). Bit-identical to
/// synthesize_capture — same RNG draws in the same order, same arithmetic.
void synthesize_capture_into(const CaptureConfig& config,
                             double channel_power_dbm, double noise_power_dbm,
                             std::mt19937_64& rng, CaptureWorkspace& ws);

/// In-capture share of the channel's data power: the fraction of the 6 MHz
/// data spectrum that falls inside the capture window, as a linear ratio.
[[nodiscard]] double in_capture_data_fraction(const CaptureConfig& config)
    noexcept;

}  // namespace waldo::dsp
