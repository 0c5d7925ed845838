// Detection statistics over I/Q captures: the classic full-band energy
// detector and the pilot-narrowband detector the paper adopts from V-Scope
// (pilot-band power + 12 dB), which buys ~8 dB of effective noise-floor
// headroom over full-band energy detection.
//
// Every spectral statistic reads one fftshifted power spectrum. The
// campaign's hot path fills a CaptureWorkspace's spectrum with
// power_spectrum_shifted_into and reads CFT and AFT from it with the
// *_from_power forms, with zero steady-state heap allocation;
// power_spectrum_shifted is the same loop into a fresh workspace.
#pragma once

#include <span>
#include <vector>

#include "waldo/dsp/fft.hpp"
#include "waldo/dsp/iq.hpp"

namespace waldo::dsp {

/// The pilot band: this many central fftshifted DFT bins (odd, centred on
/// the pilot at bin N/2). A capture with fewer bins uses the widest odd
/// band centred on bin N/2 that it has (one bin when N is 1 or 2).
inline constexpr std::size_t kPilotBins = 3;

/// The AFT band: the central 15 % of the DFT bins (paper, Section 3.2).
inline constexpr double kCentralBandFraction = 0.15;

/// Full-capture energy estimate in dBm (mean |x|^2 over the capture).
[[nodiscard]] double energy_detector_dbm(std::span<const cplx> capture);

/// Fills ws.power with the per-bin power |X_k|^2 / N^2 of the FFT of
/// `capture`, in linear units of the input's power scale, arranged with DC
/// at index N/2 (fftshift order) so bin N/2 is the capture's centre
/// frequency. Uses ws.scratch for the FFT; allocation-free once the
/// workspace has warmed to the capture size. Returns a span over ws.power.
std::span<const double> power_spectrum_shifted_into(
    std::span<const cplx> capture, CaptureWorkspace& ws);

/// power_spectrum_shifted_into through a fresh workspace.
[[nodiscard]] std::vector<double> power_spectrum_shifted(
    std::span<const cplx> capture);

/// Pilot-band power in dBm: sum of the kPilotBins central fftshifted DFT
/// bins (the capture is tuned to the pilot).
[[nodiscard]] double pilot_band_power_dbm(std::span<const cplx> capture);

/// The paper's channel-power estimate: pilot-band power plus the 12 dB
/// pilot-to-channel correction.
[[nodiscard]] double pilot_detector_dbm(std::span<const cplx> capture);

/// CFT and AFT from an fftshifted power spectrum (power_spectrum_shifted's
/// output): the central bin's power, and the mean power of the central
/// kCentralBandFraction of the bins, both in dB (relative scale).
[[nodiscard]] double central_bin_db_from_power(std::span<const double> ps);
[[nodiscard]] double central_band_mean_db_from_power(
    std::span<const double> ps);

}  // namespace waldo::dsp
