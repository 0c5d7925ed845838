#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <span>

#include "waldo/rf/channels.hpp"
#include "waldo/sensors/calibration.hpp"
#include "waldo/sensors/sensor.hpp"

namespace waldo::sensors {
namespace {

// Root-mean-square residual of a calibration over samples, in dB.
double calibration_rms_error_db(const LinearCalibration& cal,
                                std::span<const CalibrationSample> samples) {
  double acc = 0.0;
  for (const CalibrationSample& s : samples) {
    const double e = cal.to_dbm(s.raw_reading) - s.input_dbm;
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(samples.size()));
}

TEST(Calibration, ExactLineIsRecovered) {
  std::vector<CalibrationSample> samples;
  for (double raw = -50.0; raw <= -20.0; raw += 5.0) {
    samples.push_back({.input_dbm = 1.25 * raw - 40.0, .raw_reading = raw});
  }
  const LinearCalibration cal = fit_calibration(samples);
  EXPECT_NEAR(cal.slope, 1.25, 1e-9);
  EXPECT_NEAR(cal.intercept, -40.0, 1e-9);
  EXPECT_NEAR(calibration_rms_error_db(cal, samples), 0.0, 1e-9);
}

TEST(Calibration, NoisyLineFitsWithinTolerance) {
  std::mt19937_64 rng(2);
  std::normal_distribution<double> noise(0.0, 0.3);
  std::vector<CalibrationSample> samples;
  for (double level = -80.0; level <= -30.0; level += 2.0) {
    for (int i = 0; i < 20; ++i) {
      samples.push_back(
          {.input_dbm = level, .raw_reading = 0.8 * level + 25.0 + noise(rng)});
    }
  }
  const LinearCalibration cal = fit_calibration(samples);
  EXPECT_NEAR(cal.to_dbm(0.8 * -55.0 + 25.0), -55.0, 0.2);
  EXPECT_LT(calibration_rms_error_db(cal, samples), 0.6);
}

TEST(Calibration, RejectsDegenerateInput) {
  EXPECT_THROW((void)fit_calibration(std::vector<CalibrationSample>{}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)fit_calibration(std::vector<CalibrationSample>{{-60.0, -40.0}}),
      std::invalid_argument);
  const std::vector<CalibrationSample> constant{{-60.0, -40.0},
                                                {-50.0, -40.0}};
  EXPECT_THROW((void)fit_calibration(constant), std::invalid_argument);
}

TEST(SensorSpecs, PaperSensitivities) {
  EXPECT_NEAR(rtl_sdr_spec().pilot_floor_dbm, -98.0, 1e-9);
  EXPECT_NEAR(usrp_b200_spec().pilot_floor_dbm, -103.0, 1e-9);
  // Analyzer floor sits below the -114 dBm channel requirement (it is the
  // only device that can implement sensing-only detection).
  EXPECT_LT(spectrum_analyzer_spec().pilot_floor_dbm +
                rf::kPilotToChannelCorrectionDb,
            rf::kSensingOnlyThresholdDbm);
  // The USRP reading CDF is visibly wider than the RTL's (Fig. 5).
  EXPECT_GT(usrp_b200_spec().gain_jitter_db, rtl_sdr_spec().gain_jitter_db);
}

TEST(Sensor, WiredReadingsMonotoneInInputAboveFloor) {
  Sensor rtl(rtl_sdr_spec(), 1);
  const auto mean_raw = [&](double level) {
    double acc = 0.0;
    for (int i = 0; i < 50; ++i) acc += rtl.measure_wired_raw(level);
    return acc / 50.0;
  };
  EXPECT_LT(mean_raw(-80.0), mean_raw(-70.0));
  EXPECT_LT(mean_raw(-70.0), mean_raw(-50.0));
}

TEST(Sensor, FloorSaturatesWeakInputs) {
  Sensor rtl(rtl_sdr_spec(), 2);
  // Two inputs far below the floor give statistically identical readings.
  double a = 0.0, b = 0.0;
  for (int i = 0; i < 300; ++i) {
    a += rtl.measure_wired_raw(-115.0);
    b += rtl.measure_wired_raw(-130.0);
  }
  EXPECT_NEAR(a / 300, b / 300, 0.15);
  // But -90 (above floor knee) is distinguishable from silence.
  double c = 0.0;
  for (int i = 0; i < 300; ++i) c += rtl.measure_wired_raw(-90.0);
  EXPECT_GT(c / 300, a / 300 + 0.3);
}

TEST(Sensor, UsrpDetectsDeeperThanRtl) {
  Sensor rtl(rtl_sdr_spec(), 3);
  Sensor usrp(usrp_b200_spec(), 4);
  const auto detect_gap = [](Sensor& s, double level) {
    double sig = 0.0, ref = 0.0;
    for (int i = 0; i < 400; ++i) {
      sig += s.measure_wired_raw(level);
      ref += s.measure_wired_raw(-200.0);
    }
    return (sig - ref) / 400.0 / s.spec().raw_slope;  // in dB units
  };
  // At -105 dBm the USRP still sees a clear gap; the RTL barely does.
  EXPECT_GT(detect_gap(usrp, -105.0), 1.0);
  EXPECT_LT(detect_gap(rtl, -105.0), 1.0);
  // At every level the USRP's gap over its silent baseline dominates.
  for (const double level : {-95.0, -100.0, -105.0}) {
    EXPECT_GT(detect_gap(usrp, level), detect_gap(rtl, level));
  }
}

TEST(Sensor, CalibrationSweepYieldsAccurateReadback) {
  for (const SensorSpec& spec : {rtl_sdr_spec(), usrp_b200_spec()}) {
    Sensor sensor(spec, 5);
    const LinearCalibration cal = sensor.calibrate();
    // Calibrated wired readback in the linear regime is accurate.
    for (const double level : {-75.0, -55.0, -35.0}) {
      double acc = 0.0;
      for (int i = 0; i < 100; ++i) {
        acc += cal.to_dbm(sensor.measure_wired_raw(level));
      }
      EXPECT_NEAR(acc / 100, level, 0.5) << spec.name;
    }
  }
}

TEST(Sensor, AnalyzerIsFactoryCalibrated) {
  Sensor analyzer(spectrum_analyzer_spec(), 6);
  EXPECT_TRUE(analyzer.calibration().has_value());
  // Strong channel: calibrated estimate ~ channel power (+0.7 dB margin).
  double acc = 0.0;
  for (int i = 0; i < 200; ++i) {
    acc += analyzer.calibrated_rss_dbm(analyzer.sense_channel(-60.0).raw);
  }
  EXPECT_NEAR(acc / 200, -59.3, 0.4);
}

TEST(Sensor, UncalibratedRssThrows) {
  Sensor rtl(rtl_sdr_spec(), 7);
  EXPECT_THROW((void)rtl.calibrated_rss_dbm(-40.0), std::logic_error);
  rtl.calibrate();
  EXPECT_NO_THROW((void)rtl.calibrated_rss_dbm(-40.0));
}

TEST(Sensor, SenseChannelProducesCaptureOfConfiguredSize) {
  Sensor rtl(rtl_sdr_spec(), 8);
  const SensorReading r = rtl.sense_channel(-70.0);
  EXPECT_EQ(r.iq.size(), 256u);
  EXPECT_TRUE(std::isfinite(r.raw));
}

TEST(Sensor, RtlOverReadsNearDecodabilityThreshold) {
  // The mechanism behind the paper's RTL misdetection rate: the device
  // floor compounds with near-threshold signals, pushing the calibrated
  // estimate above the true power.
  Sensor rtl(rtl_sdr_spec(), 9);
  rtl.calibrate();
  double acc = 0.0;
  for (int i = 0; i < 300; ++i) {
    acc += rtl.calibrated_rss_dbm(rtl.sense_channel(-86.0).raw);
  }
  EXPECT_GT(acc / 300, -84.5);  // reads ~2.5 dB hot at -86 dBm truth
}

TEST(Sensor, ImpulseInjectionRaisesReadings) {
  SensorSpec spec = rtl_sdr_spec();
  spec.impulse_probability = 0.5;
  spec.impulse_mean_db = 10.0;
  Sensor noisy(spec, 10);
  Sensor clean(rtl_sdr_spec(), 10);
  double noisy_acc = 0.0, clean_acc = 0.0;
  for (int i = 0; i < 500; ++i) {
    noisy_acc += noisy.measure_wired_raw(-60.0);
    clean_acc += clean.measure_wired_raw(-60.0);
  }
  EXPECT_GT(noisy_acc / 500, clean_acc / 500 + 2.0);
}

TEST(Sensor, CalibrationSurvivesModestGainDrift) {
  // Section 2.1 robustness claim: the same calibration factors were reused
  // months apart. A modest gain drift shifts calibrated readings by the
  // drift itself (linear map), staying well inside labeling tolerance.
  Sensor rtl(rtl_sdr_spec(), 11);
  rtl.calibrate();
  const auto mean_reading = [&](int n) {
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
      acc += rtl.calibrated_rss_dbm(rtl.sense_channel(-70.0).raw);
    }
    return acc / n;
  };
  const double fresh = mean_reading(200);
  rtl.set_gain_drift_db(0.5);
  const double aged = mean_reading(200);
  EXPECT_NEAR(aged - fresh, 0.5, 0.15);
  EXPECT_NEAR(aged, -69.3 + 0.5, 0.4);  // still accurate in absolute terms
}

TEST(Sensor, DeterministicPerSeed) {
  Sensor a(rtl_sdr_spec(), 42);
  Sensor b(rtl_sdr_spec(), 42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.measure_wired_raw(-70.0), b.measure_wired_raw(-70.0));
  }
}

TEST(Sensor, RejectsZeroSlopeSpec) {
  SensorSpec spec = rtl_sdr_spec();
  spec.raw_slope = 0.0;
  EXPECT_THROW(Sensor(spec, 1), std::invalid_argument);
}

}  // namespace
}  // namespace waldo::sensors
