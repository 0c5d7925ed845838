// Cross-module property tests: invariants that must hold for ANY input in
// a family, swept with parameterized gtest. Where unit suites pin specific
// behaviours, these pin the algebra the system's safety argument rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/truth.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/core/database.hpp"
#include "waldo/core/detector.hpp"
#include "waldo/core/protocol.hpp"
#include "waldo/device/energy.hpp"
#include "waldo/dsp/detectors.hpp"
#include "waldo/ml/cross_validation.hpp"
#include "waldo/ml/naive_bayes.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/rf/units.hpp"
#include "waldo/sensors/sensor.hpp"

namespace waldo {
namespace {

// ------------------------------------------------------------- labeling

class LabelingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LabelingProperty, PermutationInvariant) {
  // Algorithm 1 is a property of the reading SET: reordering readings must
  // not change any position's label.
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> coord(0.0, 20'000.0);
  std::uniform_real_distribution<double> power(-100.0, -75.0);
  const std::size_t n = 250;
  std::vector<geo::EnuPoint> pos(n);
  std::vector<double> rss(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = geo::EnuPoint{coord(rng), coord(rng)};
    rss[i] = power(rng);
  }
  const auto base = campaign::label_readings(pos, rss);

  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<geo::EnuPoint> pos2(n);
  std::vector<double> rss2(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos2[i] = pos[perm[i]];
    rss2[i] = rss[perm[i]];
  }
  const auto shuffled = campaign::label_readings(pos2, rss2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(shuffled[i], base[perm[i]]);
  }
}

TEST_P(LabelingProperty, AddingWeakReadingsNeverFlipsExistingLabels) {
  // Safety monotonicity: extra readings below the threshold cannot convert
  // any existing not-safe label to safe, nor any safe label to not-safe.
  std::mt19937_64 rng(GetParam() + 100);
  std::uniform_real_distribution<double> coord(0.0, 15'000.0);
  std::uniform_real_distribution<double> power(-100.0, -80.0);
  std::vector<geo::EnuPoint> pos(150);
  std::vector<double> rss(150);
  for (std::size_t i = 0; i < 150; ++i) {
    pos[i] = geo::EnuPoint{coord(rng), coord(rng)};
    rss[i] = power(rng);
  }
  const auto base = campaign::label_readings(pos, rss);

  auto pos_ext = pos;
  auto rss_ext = rss;
  for (int i = 0; i < 50; ++i) {
    pos_ext.push_back(geo::EnuPoint{coord(rng), coord(rng)});
    rss_ext.push_back(-120.0);  // far below any threshold
  }
  const auto extended = campaign::label_readings(pos_ext, rss_ext);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(extended[i], base[i]);
  }
}

TEST_P(LabelingProperty, HotReadingPoisonsExactlyItsDisk) {
  // One hot reading among silence: everything within the separation radius
  // is not-safe, everything beyond is safe.
  std::mt19937_64 rng(GetParam() + 200);
  std::uniform_real_distribution<double> coord(-15'000.0, 15'000.0);
  std::vector<geo::EnuPoint> pos{geo::EnuPoint{0.0, 0.0}};
  std::vector<double> rss{-60.0};
  for (int i = 0; i < 200; ++i) {
    pos.push_back(geo::EnuPoint{coord(rng), coord(rng)});
    rss.push_back(-110.0);
  }
  const auto labels = campaign::label_readings(pos, rss);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const double d = geo::distance_m(pos[i], pos[0]);
    if (d <= rf::kSeparationDistanceM) {
      EXPECT_EQ(labels[i], ml::kNotSafe) << "at distance " << d;
    } else {
      EXPECT_EQ(labels[i], ml::kSafe) << "at distance " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelingProperty,
                         ::testing::Values(1, 7, 42, 1001));

// ----------------------------------------------------------------- truth

class TruthSeparationSweep : public ::testing::TestWithParam<double> {};

TEST_P(TruthSeparationSweep, SafeAreaShrinksWithSeparation) {
  static const rf::Environment env = rf::make_metro_environment();
  campaign::LabelingConfig narrow;
  narrow.separation_m = GetParam();
  campaign::LabelingConfig wide;
  wide.separation_m = GetParam() + 2000.0;
  const campaign::GroundTruthLabeler a(env, 46, narrow, 500.0);
  const campaign::GroundTruthLabeler b(env, 46, wide, 500.0);
  EXPECT_GE(a.safe_area_fraction(), b.safe_area_fraction());
}

INSTANTIATE_TEST_SUITE_P(Radii, TruthSeparationSweep,
                         ::testing::Values(1700.0, 4000.0, 6000.0));

// --------------------------------------------------------------- sensors

}  // namespace

namespace sensors {
// Found by ADL when gtest lists SensorSpec parameters. Without it gtest dumps
// the object's raw bytes, whose leading std::string pointer is a heap address
// that changes with every run, so the listed test names would too.
void PrintTo(const SensorSpec& spec, std::ostream* os) { *os << spec.name; }
}  // namespace sensors

namespace {

class SensorSpecSweep
    : public ::testing::TestWithParam<sensors::SensorSpec> {};

TEST_P(SensorSpecSweep, CalibratedReadbackLinearAboveFloor) {
  sensors::Sensor sensor(GetParam(), 9);
  if (!sensor.calibration().has_value()) sensor.calibrate();
  // Well above the device floor (pilot 20+ dB clear of it), the calibrated
  // channel estimate tracks truth within the +0.7 dB design margin and
  // jitter; closer to the floor, compounding biases readings high by
  // design (tested in test_sensors).
  for (double level = GetParam().pilot_floor_dbm + 32.0; level <= -40.0;
       level += 10.0) {
    double acc = 0.0;
    constexpr int kReps = 120;
    for (int i = 0; i < kReps; ++i) {
      acc += sensor.calibrated_rss_dbm(sensor.sense_channel(level).raw);
    }
    EXPECT_NEAR(acc / kReps, level + 0.7, 0.8)
        << GetParam().name << " at " << level;
  }
}

TEST_P(SensorSpecSweep, ReadingsMonotoneInTruePower) {
  sensors::Sensor sensor(GetParam(), 10);
  const auto mean_raw = [&](double level) {
    double acc = 0.0;
    for (int i = 0; i < 150; ++i) acc += sensor.measure_wired_raw(level);
    return acc / 150.0;
  };
  double prev = mean_raw(GetParam().pilot_floor_dbm + 5.0);
  for (double level = GetParam().pilot_floor_dbm + 12.0; level <= -40.0;
       level += 8.0) {
    const double cur = mean_raw(level);
    EXPECT_GT(cur, prev) << GetParam().name << " at " << level;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, SensorSpecSweep,
    ::testing::Values(sensors::rtl_sdr_spec(), sensors::usrp_b200_spec(),
                      sensors::spectrum_analyzer_spec()),
    [](const ::testing::TestParamInfo<sensors::SensorSpec>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ------------------------------------------------------------------- dsp

TEST(DspProperty, PowerSpectrumInvariantToTimeShift) {
  // Circular time shift changes only phases; per-bin power is preserved.
  std::mt19937_64 rng(11);
  const auto capture =
      dsp::synthesize_capture(dsp::CaptureConfig{}, -70.0, -95.0, rng);
  std::vector<dsp::cplx> shifted(capture.size());
  constexpr std::size_t kShift = 37;
  for (std::size_t i = 0; i < capture.size(); ++i) {
    shifted[i] = capture[(i + kShift) % capture.size()];
  }
  const auto ps_a = dsp::power_spectrum_shifted(capture);
  const auto ps_b = dsp::power_spectrum_shifted(shifted);
  for (std::size_t k = 0; k < ps_a.size(); ++k) {
    EXPECT_NEAR(ps_a[k], ps_b[k], 1e-12 + 1e-9 * ps_a[k]);
  }
}

TEST(DspProperty, StrongerChannelRaisesEveryDetector) {
  std::mt19937_64 rng(12);
  const dsp::CaptureConfig cfg;
  double e_lo = 0.0, e_hi = 0.0, p_lo = 0.0, p_hi = 0.0;
  constexpr int kReps = 150;
  for (int i = 0; i < kReps; ++i) {
    const auto weak = dsp::synthesize_capture(cfg, -75.0, -100.0, rng);
    const auto strong = dsp::synthesize_capture(cfg, -65.0, -100.0, rng);
    e_lo += dsp::energy_detector_dbm(weak);
    e_hi += dsp::energy_detector_dbm(strong);
    p_lo += dsp::pilot_detector_dbm(weak);
    p_hi += dsp::pilot_detector_dbm(strong);
  }
  // +10 dB of channel power: the pilot statistic follows nearly 1:1, the
  // full-band statistic follows with the out-of-band dilution.
  EXPECT_NEAR((p_hi - p_lo) / kReps, 10.0, 1.0);
  EXPECT_GT((e_hi - e_lo) / kReps, 6.0);
}

// ----------------------------------------------------------- environment

TEST(EnvironmentProperty, CoChannelPowersSuperpose) {
  rf::EnvironmentConfig cfg;
  cfg.obstacle_count = 0;
  cfg.shadowing_sigma_db = 0.01;
  const rf::Transmitter tx_a{.location = geo::EnuPoint{5000.0, 13'000.0},
                             .channel = 30,
                             .erp_dbm = 60.0,
                             .height_m = 60.0};
  rf::Transmitter tx_b = tx_a;
  tx_b.location = geo::EnuPoint{21'000.0, 13'000.0};

  const rf::Environment only_a(cfg, {tx_a});
  const rf::Environment only_b(cfg, {tx_b});
  const rf::Environment both(cfg, {tx_a, tx_b});
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> coord(0.0, 26'500.0);
  for (int i = 0; i < 40; ++i) {
    const geo::EnuPoint p{coord(rng), coord(rng)};
    const double a = only_a.true_rss_dbm(30, p);
    const double b = only_b.true_rss_dbm(30, p);
    const double sum = both.true_rss_dbm(30, p);
    EXPECT_GE(sum + 1e-6, std::max(a, b));
    EXPECT_NEAR(sum, rf::add_dbm(a, b), 0.2);
  }
}

TEST(EnvironmentProperty, ObstaclesOnlyEverAttenuate) {
  const rf::Environment with = rf::make_metro_environment();
  rf::EnvironmentConfig cfg;
  cfg.obstacle_count = 0;
  const rf::Environment without(cfg, with.transmitters());
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<double> coord(0.0, 26'500.0);
  for (int i = 0; i < 60; ++i) {
    const geo::EnuPoint p{coord(rng), coord(rng)};
    // Same seeds -> same shadowing; obstacles can only subtract.
    EXPECT_LE(with.true_rss_dbm(46, p), without.true_rss_dbm(46, p) + 1e-9);
  }
}

// -------------------------------------------------------------- detector

class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, ConvergedEstimateIsUnbiased) {
  core::DetectorConfig cfg;
  cfg.alpha_db = GetParam();
  cfg.max_samples = 100'000;
  core::ConvergenceFilter filter(cfg);
  std::mt19937_64 rng(15);
  std::normal_distribution<double> noise(-88.0, 1.0);
  while (!filter.ingest(noise(rng))) {
  }
  // Whatever alpha demanded, the trimmed-mean estimate lands near truth.
  EXPECT_NEAR(filter.estimate_dbm(), -88.0, std::max(1.0, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 5.0));

// -------------------------------------------------------------- protocol

TEST(ProtocolProperty, DecodeNeverCrashesOnMutations) {
  // Fuzz-lite: random mutations of a valid wire string either parse or
  // throw — never crash, never loop.
  const std::string valid = core::encode(core::ModelRequest{
      .channel = 46, .location = geo::EnuPoint{1.0, 2.0}});
  std::mt19937_64 rng(16);
  std::uniform_int_distribution<std::size_t> pick_pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> pick_char(0, 255);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = valid;
    const int edits = 1 + trial % 5;
    for (int e = 0; e < edits; ++e) {
      mutated[pick_pos(rng)] = static_cast<char>(pick_char(rng));
    }
    try {
      (void)core::decode(mutated);
    } catch (const std::exception&) {
      // expected for most mutations
    }
  }
  SUCCEED();
}

TEST(ProtocolProperty, EncodeDecodeIsIdentityOnRandomUploads) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> coord(-1e5, 1e5);
  std::uniform_real_distribution<double> level(-120.0, -40.0);
  for (int trial = 0; trial < 20; ++trial) {
    core::UploadRequest request;
    request.channel = 14 + trial;
    request.contributor = "device-" + std::to_string(trial);
    const std::size_t count = 1 + static_cast<std::size_t>(trial) * 3;
    for (std::size_t i = 0; i < count; ++i) {
      campaign::Measurement m;
      m.position = geo::EnuPoint{coord(rng), coord(rng)};
      m.rss_dbm = level(rng);
      m.cft_db = level(rng);
      m.aft_db = level(rng);
      m.raw = level(rng);
      request.readings.push_back(m);
    }
    const core::Message decoded = core::decode(core::encode(request));
    const auto* r = std::get_if<core::UploadRequest>(&decoded);
    ASSERT_NE(r, nullptr);
    ASSERT_EQ(r->readings.size(), request.readings.size());
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_DOUBLE_EQ(r->readings[i].rss_dbm, request.readings[i].rss_dbm);
      EXPECT_DOUBLE_EQ(r->readings[i].position.east_m,
                       request.readings[i].position.east_m);
    }
  }
}

// ------------------------------------------------------------------ misc

class TrainingCapSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrainingCapSweep, CapNeverChangesTestCoverage) {
  std::mt19937_64 rng(18);
  std::normal_distribution<double> g(0.0, 1.0);
  ml::Matrix x(240, 2);
  std::vector<int> y(240);
  for (std::size_t i = 0; i < 240; ++i) {
    const bool safe = i % 2 == 0;
    x(i, 0) = g(rng) + (safe ? 1.5 : -1.5);
    x(i, 1) = g(rng);
    y[i] = safe ? ml::kSafe : ml::kNotSafe;
  }
  ml::CrossValidationConfig cfg;
  cfg.max_train_samples = GetParam();
  const auto result = ml::cross_validate(
      x, y, [] { return std::make_unique<ml::GaussianNaiveBayes>(); }, cfg);
  EXPECT_EQ(result.overall.total(), 240u);
}

INSTANTIATE_TEST_SUITE_P(Caps, TrainingCapSweep,
                         ::testing::Values(10, 50, 200, 0));

TEST(EnergyProperty, CostsScaleLinearly) {
  const device::EnergyModel model;
  device::ScanReport unit;
  device::ChannelScan scan;
  scan.acquisition_time_s = 0.2;
  scan.processing_time_s = 0.05;
  unit.channels.push_back(scan);
  unit.processing_time_s = 0.05;

  device::ScanReport triple;
  for (int i = 0; i < 3; ++i) triple.channels.push_back(scan);
  triple.processing_time_s = 0.15;
  EXPECT_NEAR(device::scan_energy_j(triple, model),
              3.0 * device::scan_energy_j(unit, model), 1e-9);
  EXPECT_NEAR(device::transfer_energy_j(4096, model) -
                  device::transfer_energy_j(2048, model),
              2.0 * model.radio_j_per_kb, 1e-9);
}

}  // namespace
}  // namespace waldo
