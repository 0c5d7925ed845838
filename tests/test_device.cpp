#include <gtest/gtest.h>

#include "waldo/campaign/wardrive.hpp"
#include "waldo/device/phone.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/service/service.hpp"

namespace waldo::device {
namespace {

class PhoneFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new rf::Environment(rf::make_metro_environment());
    const geo::DrivePath route = campaign::standard_route(*env_, 2000, 31);
    core::ModelConstructorConfig cfg;
    cfg.classifier = "naive_bayes";
    cfg.num_localities = 3;
    cfg.num_features = 2;
    db_ = new service::SpectrumService(cfg);
    sensors::Sensor usrp(sensors::usrp_b200_spec(), 32);
    usrp.calibrate();
    for (const int ch : {17, 27, 46}) {
      db_->ingest_campaign(
          campaign::collect_channel(*env_, usrp, ch, route.readings));
    }
  }
  static void TearDownTestSuite() {
    delete env_;
    delete db_;
    env_ = nullptr;
    db_ = nullptr;
  }

  static sensors::Sensor make_phone_sensor(std::uint64_t seed) {
    sensors::Sensor s(phone_rtl_sdr_spec(), seed);
    s.calibrate();
    return s;
  }

  static rf::Environment* env_;
  static service::SpectrumService* db_;
};

rf::Environment* PhoneFixture::env_ = nullptr;
service::SpectrumService* PhoneFixture::db_ = nullptr;

TEST_F(PhoneFixture, RequiresCalibratedSensor) {
  sensors::Sensor raw(phone_rtl_sdr_spec(), 33);
  EXPECT_THROW(PhoneRuntime(PhoneConfig{}, std::move(raw)),
               std::invalid_argument);
}

TEST_F(PhoneFixture, EnsureModelsDownloadsOncePerChannel) {
  PhoneRuntime phone(PhoneConfig{}, make_phone_sensor(34));
  const std::vector<int> channels{17, 46};
  const std::size_t bytes = phone.ensure_models(*db_, channels);
  EXPECT_GT(bytes, 0u);
  EXPECT_TRUE(phone.has_model(17));
  EXPECT_TRUE(phone.has_model(46));
  EXPECT_FALSE(phone.has_model(27));
  // Second call is a no-op.
  EXPECT_EQ(phone.ensure_models(*db_, channels), 0u);
  EXPECT_EQ(phone.bytes_downloaded(), bytes);
}

TEST_F(PhoneFixture, ScanWithoutModelThrows) {
  PhoneRuntime phone(PhoneConfig{}, make_phone_sensor(35));
  EXPECT_THROW(phone.scan_channel(*env_, 17, geo::EnuPoint{100.0, 100.0}),
               std::logic_error);
}

TEST_F(PhoneFixture, StationaryScanConverges) {
  PhoneConfig cfg;
  cfg.cache_constant_channels = false;  // force a real scan of channel 27
  PhoneRuntime phone(cfg, make_phone_sensor(36));
  const std::vector<int> channels{27};
  phone.ensure_models(*db_, channels);
  const ChannelScan scan =
      phone.scan_channel(*env_, 27, geo::EnuPoint{13'000.0, 13'000.0});
  EXPECT_TRUE(scan.converged);
  EXPECT_GE(scan.readings_used, 5u);
  EXPECT_GT(scan.acquisition_time_s, 0.0);
  EXPECT_GT(scan.processing_time_s, 0.0);
  EXPECT_GT(scan.convergence_time_s(), scan.processing_time_s);
  // Downtown on the blanket channel must be not-safe.
  EXPECT_EQ(scan.decision, ml::kNotSafe);
}

TEST_F(PhoneFixture, StationaryConvergenceIsSubSecond) {
  PhoneRuntime phone(PhoneConfig{}, make_phone_sensor(37));
  phone.ensure_models(*db_, std::vector<int>{17});
  double total = 0.0;
  for (int i = 0; i < 10; ++i) {
    const ChannelScan scan =
        phone.scan_channel(*env_, 17, geo::EnuPoint{5000.0, 5000.0});
    EXPECT_TRUE(scan.converged);
    total += scan.convergence_time_s();
  }
  EXPECT_LT(total / 10.0, 1.0);  // paper: ~0.19 s mean
}

TEST_F(PhoneFixture, MobileScanMayFailToConverge) {
  PhoneConfig cfg;
  cfg.cache_constant_channels = false;
  cfg.detector.alpha_db = 0.2;
  cfg.detector.max_samples = 40;
  PhoneRuntime phone(cfg, make_phone_sensor(38));
  phone.ensure_models(*db_, std::vector<int>{46});
  std::size_t failures = 0;
  for (int i = 0; i < 8; ++i) {
    // Driving at 25 m/s across the coverage gradient.
    const ChannelScan scan = phone.scan_channel_mobile(
        *env_, 46, geo::EnuPoint{8000.0 + i * 500.0, 20'000.0}, 25.0, 0.0);
    if (!scan.converged) {
      ++failures;
      // Non-convergence falls back to the conservative decision.
      EXPECT_EQ(scan.decision, ml::kNotSafe);
    }
  }
  EXPECT_GT(failures, 0u);
}

TEST_F(PhoneFixture, ScanCycleAggregatesBusyTime) {
  PhoneRuntime phone(PhoneConfig{}, make_phone_sensor(39));
  const std::vector<int> channels{17, 27, 46};
  phone.ensure_models(*db_, channels);
  const ScanReport report =
      phone.scan_cycle(*env_, channels, geo::EnuPoint{10'000.0, 10'000.0});
  ASSERT_EQ(report.channels.size(), 3u);
  double busy = 0.0;
  for (const ChannelScan& s : report.channels) busy += s.convergence_time_s();
  EXPECT_NEAR(report.busy_time_s, busy, 1e-9);
  EXPECT_GT(report.cpu_active_fraction(), 0.0);
  EXPECT_LT(report.cpu_active_fraction(), 1.0);
  EXPECT_LT(report.cpu_duty_fraction(60.0), report.cpu_active_fraction());
}

TEST_F(PhoneFixture, PhoneSensorSpecIsNoisierRtl) {
  const sensors::SensorSpec phone_spec = phone_rtl_sdr_spec();
  const sensors::SensorSpec bench_spec = sensors::rtl_sdr_spec();
  EXPECT_EQ(phone_spec.pilot_floor_dbm, bench_spec.pilot_floor_dbm);
  EXPECT_GT(phone_spec.gain_jitter_db, bench_spec.gain_jitter_db);
}

TEST_F(PhoneFixture, ConstantChannelDecisionIsCached) {
  PhoneRuntime phone(PhoneConfig{}, make_phone_sensor(41));
  phone.ensure_models(*db_, std::vector<int>{27, 46});
  // Channel 27 blankets the region: its model is an area-wide constant and
  // the decision is served without sensing.
  const ChannelScan cached =
      phone.scan_channel(*env_, 27, geo::EnuPoint{13'000.0, 13'000.0});
  EXPECT_TRUE(cached.cached);
  EXPECT_EQ(cached.readings_used, 0u);
  EXPECT_DOUBLE_EQ(cached.acquisition_time_s, 0.0);
  EXPECT_EQ(cached.decision, ml::kNotSafe);
  // Channel 46 has both classes: it must be sensed.
  const ChannelScan sensed =
      phone.scan_channel(*env_, 46, geo::EnuPoint{13'000.0, 13'000.0});
  EXPECT_FALSE(sensed.cached);
  EXPECT_GT(sensed.readings_used, 0u);
}

TEST_F(PhoneFixture, CachingShortensScanCycles) {
  PhoneConfig cached_cfg;
  PhoneConfig uncached_cfg;
  uncached_cfg.cache_constant_channels = false;
  PhoneRuntime fast(cached_cfg, make_phone_sensor(42));
  PhoneRuntime slow(uncached_cfg, make_phone_sensor(42));
  const std::vector<int> channels{17, 27, 46};
  fast.ensure_models(*db_, channels);
  slow.ensure_models(*db_, channels);
  const geo::EnuPoint p{10'000.0, 10'000.0};
  const ScanReport a = fast.scan_cycle(*env_, channels, p);
  const ScanReport b = slow.scan_cycle(*env_, channels, p);
  EXPECT_LT(a.busy_time_s, b.busy_time_s);
}

TEST_F(PhoneFixture, InstallModelReplacesExisting) {
  PhoneRuntime phone(PhoneConfig{}, make_phone_sensor(40));
  phone.ensure_models(*db_, std::vector<int>{17});
  // Installing a fresh copy for the same channel must not throw and keeps
  // the channel available.
  phone.install_model(
      core::WhiteSpaceModel::deserialize(db_->download_model(17)));
  EXPECT_TRUE(phone.has_model(17));
}

}  // namespace
}  // namespace waldo::device
