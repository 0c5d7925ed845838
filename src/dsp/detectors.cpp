#include "waldo/dsp/detectors.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "waldo/rf/channels.hpp"
#include "waldo/rf/units.hpp"

namespace waldo::dsp {

namespace {

constexpr double kFloorMw = 1e-22;  // ~ -220 dBm; keeps log10 finite

[[nodiscard]] double pilot_band_mw(std::span<const double> ps) {
  const std::size_t c = ps.size() / 2;
  const std::size_t half = std::min(kPilotBins / 2, ps.size() - 1 - c);
  double mw = 0.0;
  for (std::size_t k = c - half; k <= c + half; ++k) mw += ps[k];
  return mw;
}

[[nodiscard]] double central_band_mean_mw(std::span<const double> ps) {
  const std::size_t n = ps.size();
  const auto span_bins = std::max<std::size_t>(
      1, static_cast<std::size_t>(kCentralBandFraction *
                                  static_cast<double>(n)));
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

std::vector<double> power_spectrum_shifted(std::span<const cplx> capture) {
  CaptureWorkspace ws;
  power_spectrum_shifted_into(capture, ws);
  return std::move(ws.power);
}

double pilot_band_power_dbm(std::span<const cplx> capture) {
  const std::vector<double> ps = power_spectrum_shifted(capture);
  return rf::mw_to_dbm(std::max(pilot_band_mw(ps), kFloorMw));
}

double pilot_detector_dbm(std::span<const cplx> capture) {
  return pilot_band_power_dbm(capture) + rf::kPilotToChannelCorrectionDb;
}

double central_bin_db_from_power(std::span<const double> ps) {
  return rf::mw_to_dbm(std::max(ps[ps.size() / 2], kFloorMw));
}

double central_band_mean_db_from_power(std::span<const double> ps) {
  return rf::mw_to_dbm(std::max(central_band_mean_mw(ps), kFloorMw));
}

}  // namespace waldo::dsp
