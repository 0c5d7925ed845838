// Detection statistics over I/Q captures: the classic full-band energy
// detector and the pilot-narrowband detector the paper adopts from V-Scope
// (pilot-band power + 12 dB), which buys ~8 dB of effective noise-floor
// headroom over full-band energy detection.
//
// The statistics over a capture allocate a fresh power spectrum per call.
// The campaign's hot path instead fills one CaptureWorkspace spectrum with
// power_spectrum_shifted_into and reads CFT and AFT from it with the
// *_from_power forms — bit-identical results, zero steady-state heap
// allocation. The *_from_spectrum variants compute the statistic straight
// from a synthesized fftshift-ordered spectrum, skipping the ifft -> fft
// round trip (the --fast-spectral path; equal to the exact path within FFT
// round-trip error, see tests/test_dsp.cpp).
#pragma once

#include <span>

#include "waldo/dsp/fft.hpp"
#include "waldo/dsp/iq.hpp"

namespace waldo::dsp {

/// Full-capture energy estimate in dBm (mean |x|^2 over the capture).
[[nodiscard]] double energy_detector_dbm(std::span<const cplx> capture);

/// Fills ws.power with the fftshifted per-bin power spectrum of `capture`
/// (semantics of power_spectrum_shifted) using ws.scratch for the FFT;
/// allocation-free once the workspace has warmed to the capture size.
/// Returns a span over ws.power.
std::span<const double> power_spectrum_shifted_into(
    std::span<const cplx> capture, CaptureWorkspace& ws);

/// Pilot-band power in dBm: sum of the `pilot_bins` central fftshifted DFT
/// bins (the capture is tuned to the pilot). `pilot_bins` must be odd.
[[nodiscard]] double pilot_band_power_dbm(std::span<const cplx> capture,
                                          std::size_t pilot_bins = 3);

/// The paper's channel-power estimate: pilot-band power plus the 12 dB
/// pilot-to-channel correction.
[[nodiscard]] double pilot_detector_dbm(std::span<const cplx> capture,
                                        std::size_t pilot_bins = 3);

/// Central DFT bin power in dB (relative scale) — the CFT feature.
[[nodiscard]] double central_bin_db(std::span<const cplx> capture);

/// Mean power of the central `fraction` of DFT bins in dB — the AFT
/// feature (paper: central 15 %).
[[nodiscard]] double central_band_mean_db(std::span<const cplx> capture,
                                          double fraction = 0.15);

/// CFT / AFT from an already-computed fftshifted power spectrum (e.g.
/// power_spectrum_shifted_into's output) — lets one spectrum serve both
/// features with bit-identical results.
[[nodiscard]] double central_bin_db_from_power(std::span<const double> ps);
[[nodiscard]] double central_band_mean_db_from_power(std::span<const double> ps,
                                                     double fraction = 0.15);

/// CFT straight from a synthesized fftshift-ordered spectrum (per-bin
/// power |S_k|^2 / N^2), no transform at all.
[[nodiscard]] double central_bin_db_from_spectrum(
    std::span<const cplx> shifted_spectrum);

/// AFT straight from a synthesized fftshift-ordered spectrum.
[[nodiscard]] double central_band_mean_db_from_spectrum(
    std::span<const cplx> shifted_spectrum, double fraction = 0.15);

}  // namespace waldo::dsp
