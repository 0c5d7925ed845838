#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "waldo/campaign/wardrive.hpp"
#include "waldo/core/transmitter_locator.hpp"
#include "waldo/rf/environment.hpp"

namespace waldo {
namespace {

campaign::ChannelDataset synthetic_field(const geo::EnuPoint& tx,
                                         double intercept, double exponent,
                                         double noise_db,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 26'500.0);
  // Scaled from a unit normal: a normal_distribution with a standard
  // deviation of 0 breaks its precondition (stddev > 0). Same draws and
  // the same values as a distribution built with noise_db.
  std::normal_distribution<double> unit(0.0, 1.0);
  campaign::ChannelDataset ds;
  ds.channel = 30;
  for (int i = 0; i < 1200; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{coord(rng), coord(rng)};
    const double d_km =
        std::max(0.05, geo::distance_m(m.position, tx) / 1000.0);
    m.rss_dbm =
        intercept - 10.0 * exponent * std::log10(d_km) + noise_db * unit(rng);
    ds.readings.push_back(m);
  }
  return ds;
}

TEST(TransmitterLocator, RecoversExactSyntheticSource) {
  const geo::EnuPoint tx{-20'000.0, 13'000.0};  // outside the drive box
  const auto ds = synthetic_field(tx, -40.0, 3.3, 0.0, 1);
  const auto estimate = core::locate_transmitter(ds);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_LT(geo::distance_m(estimate->position, tx), 1500.0);
  EXPECT_NEAR(estimate->path_loss_exponent, 3.3, 0.15);
  EXPECT_NEAR(estimate->intercept_dbm, -40.0, 2.0);
  EXPECT_LT(estimate->rmse_db, 0.5);
}

TEST(TransmitterLocator, ToleratesMeasurementNoise) {
  const geo::EnuPoint tx{35'000.0, 5000.0};
  const auto ds = synthetic_field(tx, -42.0, 3.0, 2.0, 2);
  const auto estimate = core::locate_transmitter(ds);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_LT(geo::distance_m(estimate->position, tx), 6000.0);
  // Noise flattens the joint position/slope fit; the exponent estimate is
  // biased low but must stay physically plausible.
  EXPECT_GT(estimate->path_loss_exponent, 1.2);
  EXPECT_LT(estimate->path_loss_exponent, 4.5);
}

TEST(TransmitterLocator, RefusesDarkChannel) {
  campaign::ChannelDataset ds;
  ds.channel = 20;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> coord(0.0, 10'000.0);
  for (int i = 0; i < 500; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{coord(rng), coord(rng)};
    m.rss_dbm = -95.0;  // everything at the floor
    ds.readings.push_back(m);
  }
  EXPECT_FALSE(core::locate_transmitter(ds).has_value());
}

TEST(TransmitterLocator, FindsTheMetroEnvironmentTower) {
  // End-to-end (Section 6 monitoring application): locate channel 46's
  // tower from an analyzer campaign. Deep-dynamic-range readings are the
  // point — the analyzer sees the RSS gradient across the whole region,
  // while a low-cost sensor's floor saturates all but a narrow strip,
  // leaving the range unidentifiable.
  const rf::Environment env = rf::make_metro_environment();
  const geo::DrivePath route = campaign::standard_route(env, 3000, 81);
  sensors::Sensor analyzer(sensors::spectrum_analyzer_spec(), 82);
  const auto ds = campaign::collect_channel(env, analyzer, 46,
                                            route.readings);
  core::LocatorConfig cfg;
  cfg.min_rss_dbm = -105.0;  // analyzer floor is far below this
  const auto estimate = core::locate_transmitter(ds, cfg);
  ASSERT_TRUE(estimate.has_value());
  const geo::EnuPoint truth = env.transmitters_on(46).front()->location;
  // Shadowing, obstruction pockets and the one-sided geometry (all
  // readings south of the tower) bound the achievable precision; the
  // estimate must land in the tower's neighbourhood and clearly beat the
  // naive centroid-of-strong-readings guess.
  const double error_m = geo::distance_m(estimate->position, truth);
  EXPECT_LT(error_m, 12'000.0);
  geo::EnuPoint centroid{0.0, 0.0};
  std::size_t strong = 0;
  for (const campaign::Measurement& m : ds.readings) {
    if (m.rss_dbm < -105.0) continue;
    centroid.east_m += m.position.east_m;
    centroid.north_m += m.position.north_m;
    ++strong;
  }
  centroid.east_m /= static_cast<double>(strong);
  centroid.north_m /= static_cast<double>(strong);
  EXPECT_LT(error_m, geo::distance_m(centroid, truth));
  EXPECT_GT(estimate->path_loss_exponent, 1.5);
  EXPECT_LT(estimate->path_loss_exponent, 6.0);
  EXPECT_GT(estimate->readings_used, 1000u);
}

}  // namespace
}  // namespace waldo
