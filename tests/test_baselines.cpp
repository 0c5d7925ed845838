#include <gtest/gtest.h>

#include <random>

#include "waldo/baselines/geo_database.hpp"
#include "waldo/baselines/sensing_only.hpp"
#include "waldo/baselines/vscope.hpp"
#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/sensors/sensor.hpp"

namespace waldo::baselines {
namespace {

class BaselineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new rf::Environment(rf::make_metro_environment());
    route_ = new geo::DrivePath(campaign::standard_route(*env_, 900, 21));
  }
  static void TearDownTestSuite() {
    delete env_;
    delete route_;
    env_ = nullptr;
    route_ = nullptr;
  }
  static rf::Environment* env_;
  static geo::DrivePath* route_;
};

rf::Environment* BaselineFixture::env_ = nullptr;
geo::DrivePath* BaselineFixture::route_ = nullptr;

TEST_F(BaselineFixture, GeoDatabaseProtectsAroundTransmitters) {
  const GeoDatabase db(*env_, 46);
  ASSERT_EQ(db.num_contours(), 1u);
  const rf::Transmitter* tx = env_->transmitters_on(46).front();
  EXPECT_EQ(db.classify(tx->location), ml::kNotSafe);
  const geo::EnuPoint far{tx->location.east_m, tx->location.north_m - 2e5};
  EXPECT_EQ(db.classify(far), ml::kSafe);
  EXPECT_GT(db.contour_radius_m(0), 1000.0);
  EXPECT_THROW((void)db.contour_radius_m(5), std::out_of_range);
}

TEST_F(BaselineFixture, GeoDatabaseNeverViolatesSafetyButOverprotects) {
  sensors::Sensor sa(sensors::spectrum_analyzer_spec(), 22);
  std::size_t total_fn = 0, total_fp = 0, safe_total = 0;
  for (const int ch : rf::kEvaluationChannels) {
    auto ds = campaign::collect_channel(*env_, sa, ch, route_->readings);
    const auto labels =
        campaign::label_readings(ds.positions(), ds.rss_values());
    const GeoDatabase db(*env_, ch);
    ml::ConfusionMatrix cm;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      cm.add(db.classify(ds.readings[i].position), labels[i]);
    }
    total_fn += cm.false_not_safe;
    total_fp += cm.false_safe;
    safe_total += cm.actually_safe();
  }
  // The database family is safe (FP ~ 0) but misses a large share of the
  // available white space (the paper's Fig. 4 premise).
  EXPECT_LT(static_cast<double>(total_fp), 0.02 * static_cast<double>(safe_total));
  EXPECT_GT(static_cast<double>(total_fn), 0.15 * static_cast<double>(safe_total));
}

TEST_F(BaselineFixture, GeoDatabaseMarginMonotone) {
  GeoDatabaseConfig lax;
  lax.fading_margin_db = 0.0;
  GeoDatabaseConfig strict;
  strict.fading_margin_db = 10.0;
  const GeoDatabase db_lax(*env_, 15, lax);
  const GeoDatabase db_strict(*env_, 15, strict);
  EXPECT_LT(db_lax.contour_radius_m(0), db_strict.contour_radius_m(0));
}

TEST(VScope, RecoversSyntheticLogDistanceField) {
  // Synthetic world with an exact log-distance law: fit must recover the
  // exponent and intercept.
  const geo::EnuPoint tx{0.0, 0.0};
  campaign::ChannelDataset ds;
  ds.channel = 30;
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> coord(2000.0, 30'000.0);
  for (int i = 0; i < 600; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{coord(rng), coord(rng)};
    const double d_km = geo::distance_m(m.position, tx) / 1000.0;
    m.rss_dbm = -40.0 - 10.0 * 3.3 * std::log10(d_km);
    ds.readings.push_back(m);
  }
  VScopeConfig cfg;
  cfg.num_clusters = 1;
  VScope vs(cfg);
  vs.fit(ds, std::vector<geo::EnuPoint>{tx});
  ASSERT_EQ(vs.fits().size(), 1u);
  EXPECT_NEAR(vs.fits()[0].exponent, 3.3, 0.05);
  EXPECT_NEAR(vs.fits()[0].intercept_dbm, -40.0, 0.5);
  EXPECT_NEAR(vs.predict_rss_dbm(geo::EnuPoint{10'000.0, 0.0}), -73.0, 0.5);
}

TEST(VScope, ClassificationUsesThresholdAndSeparation) {
  const geo::EnuPoint tx{0.0, 0.0};
  campaign::ChannelDataset ds;
  ds.channel = 30;
  std::mt19937_64 rng(24);
  std::uniform_real_distribution<double> coord(-40'000.0, 40'000.0);
  for (int i = 0; i < 500; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{coord(rng), coord(rng)};
    const double d_km =
        std::max(0.2, geo::distance_m(m.position, tx) / 1000.0);
    m.rss_dbm = -50.0 - 35.0 * std::log10(d_km);
    ds.readings.push_back(m);
  }
  VScopeConfig cfg;
  cfg.num_clusters = 1;
  VScope vs(cfg);
  vs.fit(ds, std::vector<geo::EnuPoint>{tx});
  // RSS crosses -84 dBm at ~ 10^(34/35) ~ 9.4 km; separation adds 6 km.
  EXPECT_EQ(vs.classify(geo::EnuPoint{5000.0, 0.0}), ml::kNotSafe);
  EXPECT_EQ(vs.classify(geo::EnuPoint{12'000.0, 0.0}), ml::kNotSafe);
  EXPECT_EQ(vs.classify(geo::EnuPoint{30'000.0, 0.0}), ml::kSafe);
}

TEST(VScope, Validation) {
  VScope vs;
  campaign::ChannelDataset empty;
  EXPECT_THROW(vs.fit(empty, std::vector<geo::EnuPoint>{{0, 0}}),
               std::invalid_argument);
  campaign::ChannelDataset one;
  one.readings.push_back({});
  EXPECT_THROW(vs.fit(one, {}), std::invalid_argument);
  EXPECT_THROW((void)vs.predict_rss_dbm(geo::EnuPoint{0, 0}), std::logic_error);
}

TEST(SensingOnly, ThresholdDecision) {
  EXPECT_EQ(sensing_only_decision(-120.0), ml::kSafe);
  EXPECT_EQ(sensing_only_decision(-114.0), ml::kNotSafe);
  EXPECT_EQ(sensing_only_decision(-50.0), ml::kNotSafe);
  SensingOnlyConfig relaxed;
  relaxed.threshold_dbm = -84.0;
  EXPECT_EQ(sensing_only_decision(-90.0, relaxed), ml::kSafe);
}

TEST(SensingOnly, LowCostSensorsCannotImplementIt) {
  // The cost argument of the paper: RTL/USRP floors sit far above the
  // -114 dBm requirement; only the analyzer qualifies.
  const double rtl_floor = sensors::rtl_sdr_spec().pilot_floor_dbm +
                           rf::kPilotToChannelCorrectionDb;
  const double usrp_floor = sensors::usrp_b200_spec().pilot_floor_dbm +
                            rf::kPilotToChannelCorrectionDb;
  const double sa_floor = sensors::spectrum_analyzer_spec().pilot_floor_dbm +
                          rf::kPilotToChannelCorrectionDb;
  EXPECT_FALSE(sensor_capable_of_sensing_only(rtl_floor));
  EXPECT_FALSE(sensor_capable_of_sensing_only(usrp_floor));
  EXPECT_TRUE(sensor_capable_of_sensing_only(sa_floor));
}

TEST_F(BaselineFixture, SensingOnlyOverprotectsWithAnalyzer) {
  // Channel 17's station sits beyond the NE corner: most of the region is
  // labeled safe, yet the residual signal there is still above -114 dBm,
  // so sensing-only forfeits that white space entirely.
  sensors::Sensor sa(sensors::spectrum_analyzer_spec(), 25);
  auto ds = campaign::collect_channel(*env_, sa, 17, route_->readings);
  const auto labels =
      campaign::label_readings(ds.positions(), ds.rss_values());
  ASSERT_GT(campaign::safe_fraction(labels), 0.3);
  ml::ConfusionMatrix cm;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    cm.add(sensing_only_decision(ds.readings[i].rss_dbm), labels[i]);
  }
  EXPECT_LT(cm.fp_rate(), 0.05);
  EXPECT_GT(cm.fn_rate(), 0.2);
}

}  // namespace
}  // namespace waldo::baselines
