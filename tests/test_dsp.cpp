#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "waldo/core/features.hpp"
#include "waldo/dsp/detectors.hpp"
#include "waldo/dsp/fft.hpp"
#include "waldo/dsp/iq.hpp"
#include "waldo/rf/units.hpp"

namespace waldo::dsp {
namespace {

// The direct (non-memoized) transform: the recurrence the plans memoize,
// and the reference for the plan's bit-identity test.
void reference_transform(std::span<cplx> a, bool inverse) {
  const std::size_t n = a.size();
  if (!is_pow2(n)) throw std::invalid_argument("FFT size must be 2^k");
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = 2.0 * std::numbers::pi / static_cast<double>(len) *
                       (inverse ? 1.0 : -1.0);
    const cplx wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = a[i + k];
        const cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (cplx& x : a) x *= inv_n;
  }
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cplx> x(16, cplx{0.0, 0.0});
  x[0] = cplx{1.0, 0.0};
  std::vector<cplx> spec = x;
  fft_inplace(spec);
  for (const cplx& v : spec) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, PureToneLandsInSingleBin) {
  constexpr std::size_t kN = 256;
  constexpr std::size_t kBin = 37;
  std::vector<cplx> x(kN);
  for (std::size_t n = 0; n < kN; ++n) {
    const double ph = 2.0 * std::numbers::pi * static_cast<double>(kBin) *
                      static_cast<double>(n) / static_cast<double>(kN);
    x[n] = cplx{std::cos(ph), std::sin(ph)};
  }
  std::vector<cplx> spec = x;
  fft_inplace(spec);
  for (std::size_t k = 0; k < kN; ++k) {
    if (k == kBin) {
      EXPECT_NEAR(std::abs(spec[k]), static_cast<double>(kN), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-8);
    }
  }
}

TEST(Fft, InverseRoundTrip) {
  std::mt19937_64 rng(4);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<cplx> x(128);
  for (auto& v : x) v = cplx{g(rng), g(rng)};
  std::vector<cplx> y = x;
  fft_inplace(y);
  ifft_inplace(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-10);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  std::mt19937_64 rng(5);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<cplx> x(64);
  for (auto& v : x) v = cplx{g(rng), g(rng)};
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  std::vector<cplx> spec = x;
  fft_inplace(spec);
  double freq_energy = 0.0;
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * 64.0, 1e-6);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<cplx> x(100);
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(100));
  EXPECT_TRUE(is_pow2(256));
}

TEST(Fft, PowerSpectrumShiftedPutsDcInCenter) {
  std::vector<cplx> x(32, cplx{1.0, 0.0});  // pure DC
  const auto ps = power_spectrum_shifted(x);
  for (std::size_t k = 0; k < ps.size(); ++k) {
    if (k == 16) {
      EXPECT_NEAR(ps[k], 1.0, 1e-12);  // |N|^2 / N^2
    } else {
      EXPECT_NEAR(ps[k], 0.0, 1e-12);
    }
  }
}

TEST(Fft, MeanPowerOfUnitTone) {
  std::vector<cplx> x(64, cplx{1.0, 0.0});
  EXPECT_DOUBLE_EQ(mean_power(x), 1.0);
  EXPECT_DOUBLE_EQ(mean_power(std::vector<cplx>{}), 0.0);
}

class CaptureProperty : public ::testing::TestWithParam<double> {};

TEST_P(CaptureProperty, TotalPowerTracksSignalPlusNoise) {
  const double channel_dbm = GetParam();
  const CaptureConfig cfg;
  std::mt19937_64 rng(11);
  // Average energy-detector output over captures; expect in-capture share
  // of the channel power plus noise.
  constexpr double kNoise = -90.0;
  double mw = 0.0;
  constexpr int kReps = 200;
  for (int i = 0; i < kReps; ++i) {
    const auto capture = synthesize_capture(cfg, channel_dbm, kNoise, rng);
    mw += rf::dbm_to_mw(energy_detector_dbm(capture));
  }
  const double measured_dbm = rf::mw_to_dbm(mw / kReps);

  const double pilot_share = std::pow(10.0, -1.13);
  const double expected_mw =
      rf::dbm_to_mw(channel_dbm) *
          (pilot_share +
           (1.0 - pilot_share) * in_capture_data_fraction(cfg)) +
      rf::dbm_to_mw(kNoise);
  EXPECT_NEAR(measured_dbm, rf::mw_to_dbm(expected_mw), 0.35);
}

INSTANTIATE_TEST_SUITE_P(Levels, CaptureProperty,
                         ::testing::Values(-50.0, -60.0, -70.0, -80.0));

TEST(Capture, VacantChannelIsPureNoise) {
  const CaptureConfig cfg;
  std::mt19937_64 rng(12);
  double mw = 0.0;
  for (int i = 0; i < 200; ++i) {
    const auto capture = synthesize_capture(cfg, -200.0, -95.0, rng);
    mw += rf::dbm_to_mw(energy_detector_dbm(capture));
  }
  EXPECT_NEAR(rf::mw_to_dbm(mw / 200), -95.0, 0.3);
}

TEST(Capture, PilotDominatesCentralBin) {
  const CaptureConfig cfg;
  std::mt19937_64 rng(13);
  const auto capture = synthesize_capture(cfg, -60.0, -100.0, rng);
  const auto ps = power_spectrum_shifted(capture);
  const std::size_t center = ps.size() / 2;
  double max_other = 0.0;
  for (std::size_t k = 0; k < ps.size(); ++k) {
    if (k != center) max_other = std::max(max_other, ps[k]);
  }
  EXPECT_GT(ps[center], 5.0 * max_other);
}

TEST(Capture, InCaptureDataFraction) {
  CaptureConfig cfg;  // 2.4 MHz around the pilot
  // Window [-1.2, 1.2] MHz; channel occupies [-0.309, +5.69] -> 1.509 MHz.
  EXPECT_NEAR(in_capture_data_fraction(cfg), 1.509 / 6.0, 0.01);
  cfg.sample_rate_hz = 16e6;  // window swallows the whole channel
  EXPECT_NEAR(in_capture_data_fraction(cfg), 1.0, 1e-9);
}

TEST(Capture, RejectsNonPowerOfTwo) {
  CaptureConfig cfg;
  cfg.num_samples = 200;
  std::mt19937_64 rng(1);
  EXPECT_THROW(synthesize_capture(cfg, -60.0, -90.0, rng),
               std::invalid_argument);
}

TEST(Detectors, PilotDetectorEstimatesChannelPower) {
  const CaptureConfig cfg;
  std::mt19937_64 rng(14);
  // Strong signal, low noise: pilot band holds the pilot (channel - 11.3);
  // +12 dB correction returns roughly channel power (+0.7 dB by design).
  double sum = 0.0;
  constexpr int kReps = 100;
  for (int i = 0; i < kReps; ++i) {
    const auto capture = synthesize_capture(cfg, -60.0, -110.0, rng);
    sum += pilot_detector_dbm(capture);
  }
  EXPECT_NEAR(sum / kReps, -60.0 + 0.7, 0.5);
}

TEST(Detectors, PilotBeatsEnergyDetectionNearTheFloor) {
  // The narrowband pilot measurement rejects most of the wideband noise:
  // for a weak signal the pilot statistic is farther above its vacant
  // baseline than the full-band energy statistic — the reason the paper
  // adopts it (Section 2.1).
  const CaptureConfig cfg;
  std::mt19937_64 rng(15);
  constexpr double kNoise = -85.0;
  constexpr int kReps = 400;
  double pilot_sig = 0.0, pilot_ref = 0.0, energy_sig = 0.0,
         energy_ref = 0.0;
  for (int i = 0; i < kReps; ++i) {
    const auto weak = synthesize_capture(cfg, -80.0, kNoise, rng);
    const auto vacant = synthesize_capture(cfg, -200.0, kNoise, rng);
    pilot_sig += pilot_band_power_dbm(weak);
    pilot_ref += pilot_band_power_dbm(vacant);
    energy_sig += energy_detector_dbm(weak);
    energy_ref += energy_detector_dbm(vacant);
  }
  const double pilot_gap = (pilot_sig - pilot_ref) / kReps;
  const double energy_gap = (energy_sig - energy_ref) / kReps;
  EXPECT_GT(pilot_gap, energy_gap + 3.0);
}

TEST(Detectors, CftAftRespondToSignalPresence) {
  const CaptureConfig cfg;
  std::mt19937_64 rng(16);
  double cft_on = 0.0, cft_off = 0.0, aft_on = 0.0, aft_off = 0.0;
  constexpr int kReps = 200;
  for (int i = 0; i < kReps; ++i) {
    const auto occupied = synthesize_capture(cfg, -75.0, -95.0, rng);
    const auto vacant = synthesize_capture(cfg, -200.0, -95.0, rng);
    const auto on = power_spectrum_shifted(occupied);
    const auto off = power_spectrum_shifted(vacant);
    cft_on += central_bin_db_from_power(on);
    cft_off += central_bin_db_from_power(off);
    aft_on += central_band_mean_db_from_power(on);
    aft_off += central_band_mean_db_from_power(off);
  }
  EXPECT_GT(cft_on / kReps, cft_off / kReps + 6.0);
  EXPECT_GT(aft_on / kReps, aft_off / kReps + 1.0);
}

// The pilot band is the kPilotBins central bins, or the widest odd band
// around bin N/2 a smaller capture has (one bin at N = 1 and 2).
TEST(Detectors, PilotBandSumsCentralBins) {
  std::mt19937_64 rng(17);
  for (const std::size_t n : {1u, 2u, 4u, 256u}) {
    const CaptureConfig cfg{.num_samples = n};
    const auto capture = synthesize_capture(cfg, -60.0, -95.0, rng);
    const auto ps = power_spectrum_shifted(capture);
    const std::size_t c = n / 2;
    const double mw = n >= 4 ? ps[c - 1] + ps[c] + ps[c + 1] : ps[c];
    EXPECT_EQ(pilot_band_power_dbm(capture), rf::mw_to_dbm(mw)) << "n=" << n;
  }
}

// The memoized plan must reproduce the direct transform bit for bit — the
// whole determinism contract of the spectral hot path hangs on it.
TEST(FftPlan, BitIdenticalToReferenceAcrossSizes) {
  std::mt19937_64 rng(11);
  std::normal_distribution<double> g(0.0, 1.0);
  for (std::size_t n = 2; n <= (1u << 14); n <<= 1) {
    std::vector<cplx> x(n);
    for (auto& v : x) v = cplx{g(rng), g(rng)};
    for (const bool inverse : {false, true}) {
      std::vector<cplx> planned = x;
      std::vector<cplx> direct = x;
      if (inverse) {
        ifft_inplace(planned);
      } else {
        fft_inplace(planned);
      }
      reference_transform(direct, inverse);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(planned[i].real(), direct[i].real())
            << "n=" << n << " inverse=" << inverse << " i=" << i;
        ASSERT_EQ(planned[i].imag(), direct[i].imag())
            << "n=" << n << " inverse=" << inverse << " i=" << i;
      }
    }
  }
}

TEST(FftPlan, RejectsNonPowerOfTwoAndSizeMismatch) {
  EXPECT_THROW((void)fft_plan(0), std::invalid_argument);
  EXPECT_THROW((void)fft_plan(24), std::invalid_argument);
  std::vector<cplx> x(8);
  EXPECT_THROW(fft_plan(16).forward(x), std::invalid_argument);
}

// Reusing one workspace across many syntheses must leave every capture
// byte-identical to the allocating form: same RNG draws, same arithmetic.
TEST(CaptureWorkspace, SynthesizeIntoMatchesAllocatingForm) {
  const CaptureConfig cfg;
  CaptureWorkspace ws;
  for (int rep = 0; rep < 5; ++rep) {
    std::mt19937_64 rng_a(100 + rep);
    std::mt19937_64 rng_b(100 + rep);
    const std::vector<cplx> fresh =
        synthesize_capture(cfg, -70.0, -95.0, rng_a);
    synthesize_capture_into(cfg, -70.0, -95.0, rng_b, ws);
    ASSERT_EQ(ws.time.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      ASSERT_EQ(ws.time[i].real(), fresh[i].real()) << "rep=" << rep;
      ASSERT_EQ(ws.time[i].imag(), fresh[i].imag()) << "rep=" << rep;
    }
    // RNG consumption is identical, so the engines stay in lockstep.
    ASSERT_EQ(rng_a(), rng_b()) << "rep=" << rep;
  }
}

// The allocating feature form, the workspace form (one workspace reused
// across every size) and the *_from_power statistics of the allocating
// power spectrum agree bit for bit, over the FFT sizes and the channel
// powers swept above.
TEST(CaptureWorkspace, DetectorOverloadsMatchAllocatingForms) {
  std::mt19937_64 rng(13);
  CaptureWorkspace ws;
  for (std::size_t n = 2; n <= (1u << 14); n <<= 1) {
    const CaptureConfig cfg{.num_samples = n};
    for (const double power : {-50.0, -60.0, -70.0, -80.0, -200.0}) {
      const auto capture = synthesize_capture(cfg, power, -96.0, rng);
      const auto ps = power_spectrum_shifted(capture);
      const core::SpectralFeatures fresh =
          core::extract_spectral_features(capture);
      const core::SpectralFeatures reused =
          core::extract_spectral_features(capture, ws);
      EXPECT_EQ(fresh.cft_db, central_bin_db_from_power(ps))
          << "n=" << n << " power=" << power;
      EXPECT_EQ(fresh.aft_db, central_band_mean_db_from_power(ps))
          << "n=" << n << " power=" << power;
      EXPECT_EQ(reused.cft_db, fresh.cft_db) << "n=" << n;
      EXPECT_EQ(reused.aft_db, fresh.aft_db) << "n=" << n;
      EXPECT_EQ(ws.power, ps) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace waldo::dsp
