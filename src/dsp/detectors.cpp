#include "waldo/dsp/detectors.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "waldo/rf/channels.hpp"
#include "waldo/rf/units.hpp"

namespace waldo::dsp {

namespace {

constexpr double kFloorMw = 1e-22;  // ~ -220 dBm; keeps log10 finite

[[nodiscard]] double pilot_band_mw(std::span<const double> ps,
                                   std::size_t pilot_bins) {
  if (pilot_bins == 0 || pilot_bins % 2 == 0) {
    throw std::invalid_argument("pilot_bins must be odd and nonzero");
  }
  const std::size_t n = ps.size();
  if (pilot_bins > n) pilot_bins = n | 1;
  const std::size_t c = n / 2;
  const std::size_t half = pilot_bins / 2;
  double mw = 0.0;
  for (std::size_t k = c - half; k <= c + half; ++k) mw += ps[k];
  return mw;
}

[[nodiscard]] double central_band_mean_mw(std::span<const double> ps,
                                          double fraction) {
  const std::size_t n = ps.size();
  const auto span_bins = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(n)));
  const std::size_t start = (n - span_bins) / 2;
  double mw = 0.0;
  for (std::size_t k = start; k < start + span_bins; ++k) mw += ps[k];
  return mw / static_cast<double>(span_bins);
}

}  // namespace

double energy_detector_dbm(std::span<const cplx> capture) {
  return rf::mw_to_dbm(std::max(mean_power(capture), kFloorMw));
}

std::span<const double> power_spectrum_shifted_into(
    std::span<const cplx> capture, CaptureWorkspace& ws) {
  const std::size_t n = capture.size();
  ws.scratch.assign(capture.begin(), capture.end());
  fft_inplace(ws.scratch);
  ws.power.resize(n);
  const double norm = 1.0 / (static_cast<double>(n) * static_cast<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    // fftshift: output index n/2 corresponds to DC (bin 0).
    const std::size_t src = (k + n / 2) % n;
    ws.power[k] = std::norm(ws.scratch[src]) * norm;
  }
  return ws.power;
}

double pilot_band_power_dbm(std::span<const cplx> capture,
                            std::size_t pilot_bins) {
  const std::vector<double> ps = power_spectrum_shifted(capture);
  return rf::mw_to_dbm(std::max(pilot_band_mw(ps, pilot_bins), kFloorMw));
}

double pilot_detector_dbm(std::span<const cplx> capture,
                          std::size_t pilot_bins) {
  return pilot_band_power_dbm(capture, pilot_bins) +
         rf::kPilotToChannelCorrectionDb;
}

double central_bin_db(std::span<const cplx> capture) {
  return central_bin_db_from_power(power_spectrum_shifted(capture));
}

double central_band_mean_db(std::span<const cplx> capture, double fraction) {
  return central_band_mean_db_from_power(power_spectrum_shifted(capture),
                                         fraction);
}

double central_bin_db_from_power(std::span<const double> ps) {
  return rf::mw_to_dbm(std::max(ps[ps.size() / 2], kFloorMw));
}

double central_band_mean_db_from_power(std::span<const double> ps,
                                       double fraction) {
  return rf::mw_to_dbm(std::max(central_band_mean_mw(ps, fraction), kFloorMw));
}

double central_bin_db_from_spectrum(std::span<const cplx> shifted_spectrum) {
  const std::size_t n = shifted_spectrum.size();
  const double norm = 1.0 / (static_cast<double>(n) * static_cast<double>(n));
  const double mw = std::norm(shifted_spectrum[n / 2]) * norm;
  return rf::mw_to_dbm(std::max(mw, kFloorMw));
}

double central_band_mean_db_from_spectrum(
    std::span<const cplx> shifted_spectrum, double fraction) {
  const std::size_t n = shifted_spectrum.size();
  const double norm = 1.0 / (static_cast<double>(n) * static_cast<double>(n));
  const auto span_bins = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(n)));
  const std::size_t start = (n - span_bins) / 2;
  double mw = 0.0;
  for (std::size_t k = start; k < start + span_bins; ++k) {
    mw += std::norm(shifted_spectrum[k]) * norm;
  }
  mw /= static_cast<double>(span_bins);
  return rf::mw_to_dbm(std::max(mw, kFloorMw));
}

}  // namespace waldo::dsp
