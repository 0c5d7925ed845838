#include "waldo/dsp/iq.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "waldo/rf/channels.hpp"
#include "waldo/rf/units.hpp"

namespace waldo::dsp {

double in_capture_data_fraction(const CaptureConfig& config) noexcept {
  const double lo = -rf::kPilotOffsetHz;
  const double hi = lo + rf::kChannelBandwidthHz;
  const double half = config.sample_rate_hz / 2.0;
  const double overlap =
      std::max(0.0, std::min(hi, half) - std::max(lo, -half));
  return overlap / rf::kChannelBandwidthHz;
}

void synthesize_capture_into(const CaptureConfig& config,
                             double channel_power_dbm, double noise_power_dbm,
                             std::mt19937_64& rng, CaptureWorkspace& ws,
                             bool spectrum_only) {
  const std::size_t n = config.num_samples;
  if (!is_pow2(n)) throw std::invalid_argument("capture size must be 2^k");
  const double df = config.sample_rate_hz / static_cast<double>(n);

  const double channel_mw = rf::dbm_to_mw(channel_power_dbm);
  const double noise_mw = rf::dbm_to_mw(noise_power_dbm);
  const double pilot_share =
      std::pow(10.0, -rf::kPilotBelowChannelDb / 10.0);  // ~0.074
  const double pilot_mw = channel_mw * pilot_share;
  const double data_mw_total = channel_mw * (1.0 - pilot_share);

  // Channel edges relative to the capture centre.
  const double band_lo = -rf::kPilotOffsetHz;
  const double band_hi = band_lo + rf::kChannelBandwidthHz;

  // Count data bins inside the capture to split the in-capture data power.
  std::size_t data_bins = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double f = (static_cast<double>(k) - static_cast<double>(n) / 2.0) * df;
    if (f >= band_lo && f <= band_hi) ++data_bins;
  }
  const double in_capture_data_mw =
      data_mw_total * in_capture_data_fraction(config);
  const double data_mw_per_bin =
      data_bins > 0 ? in_capture_data_mw / static_cast<double>(data_bins) : 0.0;
  const double noise_mw_per_bin = noise_mw / static_cast<double>(n);

  std::normal_distribution<double> gauss(0.0, 1.0);
  std::uniform_real_distribution<double> uphase(0.0,
                                                2.0 * std::numbers::pi);
  const double dn = static_cast<double>(n);

  // Build the fftshift-ordered spectrum (bin n/2 = capture centre).
  std::vector<cplx>& spec_shifted = ws.shifted;
  spec_shifted.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double f = (static_cast<double>(k) - dn / 2.0) * df;
    double bin_mw = noise_mw_per_bin;
    if (f >= band_lo && f <= band_hi) bin_mw += data_mw_per_bin;
    const double sigma = dn * std::sqrt(bin_mw / 2.0);
    spec_shifted[k] = cplx(sigma * gauss(rng), sigma * gauss(rng));
  }
  // Pilot line in the centre bin, with a random phase.
  if (pilot_mw > 0.0) {
    const double phi = uphase(rng);
    spec_shifted[n / 2] +=
        dn * std::sqrt(pilot_mw) * cplx(std::cos(phi), std::sin(phi));
  }
  if (spectrum_only) return;

  // Un-shift and inverse transform to time domain.
  std::vector<cplx>& spec = ws.time;
  spec.resize(n);
  for (std::size_t k = 0; k < n; ++k) spec[(k + n / 2) % n] = spec_shifted[k];
  ifft_inplace(spec);
}

std::vector<cplx> synthesize_capture(const CaptureConfig& config,
                                     double channel_power_dbm,
                                     double noise_power_dbm,
                                     std::mt19937_64& rng) {
  CaptureWorkspace ws;
  synthesize_capture_into(config, channel_power_dbm, noise_power_dbm, rng, ws);
  return std::move(ws.time);
}

}  // namespace waldo::dsp
