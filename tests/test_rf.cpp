#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numbers>
#include <random>
#include <utility>

#include "waldo/rf/channels.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/rf/path_loss.hpp"
#include "waldo/rf/shadowing.hpp"
#include "waldo/rf/units.hpp"

namespace waldo::rf {
namespace {

TEST(Units, DbmMwRoundTrip) {
  for (const double dbm : {-120.0, -84.0, -30.0, 0.0, 20.0}) {
    EXPECT_NEAR(mw_to_dbm(dbm_to_mw(dbm)), dbm, 1e-9);
  }
  EXPECT_DOUBLE_EQ(dbm_to_mw(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dbm_to_mw(10.0), 10.0);
}

TEST(Units, CombineDbmIsPowerSum) {
  const std::array<double, 2> equal{-90.0, -90.0};
  EXPECT_NEAR(combine_dbm(equal), -90.0 + 10.0 * std::log10(2.0), 1e-9);
  // A much weaker signal barely contributes.
  EXPECT_NEAR(add_dbm(-60.0, -100.0), -60.0, 0.01);
  EXPECT_NEAR(add_dbm(-100.0, -60.0), -60.0, 0.01);
}

TEST(Units, ThermalNoise) {
  // kTB at 290 K for 6 MHz: about -106.2 dBm.
  EXPECT_NEAR(thermal_noise_dbm(6e6), -106.2, 0.1);
}

TEST(Channels, UsChannelPlanFrequencies) {
  EXPECT_DOUBLE_EQ(channel_lower_edge_hz(2), 54e6);
  EXPECT_DOUBLE_EQ(channel_lower_edge_hz(7), 174e6);
  EXPECT_DOUBLE_EQ(channel_lower_edge_hz(14), 470e6);
  EXPECT_DOUBLE_EQ(channel_lower_edge_hz(51), 692e6);
  EXPECT_DOUBLE_EQ(channel_center_hz(14), 473e6);
  EXPECT_FALSE(is_valid_channel(1));
  EXPECT_FALSE(is_valid_channel(52));
  EXPECT_FALSE(is_valid_channel(0));
  for (const int ch : kPaperChannels) EXPECT_TRUE(is_valid_channel(ch));
}

TEST(Channels, PilotSitsJustAboveLowerEdge) {
  for (const int ch : kPaperChannels) {
    EXPECT_NEAR(channel_pilot_hz(ch) - channel_lower_edge_hz(ch), 309'440.6,
                1.0);
    EXPECT_LT(channel_pilot_hz(ch), channel_center_hz(ch));
  }
}

TEST(Channels, EvaluationSubsets) {
  // Evaluation channels exclude the two fully occupied ones (27, 39).
  for (const int ch : kEvaluationChannels) {
    EXPECT_NE(ch, 27);
    EXPECT_NE(ch, 39);
  }
  EXPECT_EQ(kPaperChannels.size(), 9u);
  EXPECT_EQ(kEvaluationChannels.size(), 7u);
  EXPECT_EQ(kCorrectedEvaluationChannels.size(), 4u);
}

class PathLossMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PathLossMonotone, LossIncreasesWithDistance) {
  const double f = channel_center_hz(GetParam());
  const HataUrbanModel hata(f, 100.0, 2.0);
  const FccCurvesModel fcc(f, 100.0);
  const auto expect_monotone = [](const auto& model) {
    double prev = model.path_loss_db(50.0);
    for (double d = 100.0; d < 60'000.0; d *= 1.6) {
      const double cur = model.path_loss_db(d);
      EXPECT_GE(cur, prev - 1e-9);
      prev = cur;
    }
  };
  expect_monotone(hata);
  expect_monotone(fcc);
}

INSTANTIATE_TEST_SUITE_P(PaperChannels, PathLossMonotone,
                         ::testing::ValuesIn(kPaperChannels));

TEST(PathLoss, HataAntennaCorrectionIsPapersConstant) {
  // a(8 m) = 3.2 (log10(11.5*8))^2 - 4.97 ~ 7.4 dB -> the paper's 7.5 dB.
  EXPECT_NEAR(HataUrbanModel::antenna_correction_db(8.0), 7.4, 0.1);
  // a(h) grows with receiver height.
  EXPECT_LT(HataUrbanModel::antenna_correction_db(2.0),
            HataUrbanModel::antenna_correction_db(10.0));
}

TEST(PathLoss, HataHigherReceiverMeansLessLoss) {
  const double f = channel_center_hz(30);
  const HataUrbanModel low(f, 60.0, 2.0);
  const HataUrbanModel high(f, 60.0, 10.0);
  EXPECT_GT(low.path_loss_db(10'000.0), high.path_loss_db(10'000.0));
  EXPECT_NEAR(low.path_loss_db(10'000.0) - high.path_loss_db(10'000.0),
              HataUrbanModel::antenna_correction_db(10.0) -
                  HataUrbanModel::antenna_correction_db(2.0),
              1e-9);
  // Loss falls monotonically with receiver height between the campaign
  // (2 m) and the reference (10 m) heights, at every distance.
  for (const double d : {500.0, 5'000.0, 30'000.0}) {
    double prev = HataUrbanModel(f, 60.0, 2.0).path_loss_db(d);
    for (double h = 2.5; h <= 10.0; h += 0.5) {
      const double loss = HataUrbanModel(f, 60.0, h).path_loss_db(d);
      EXPECT_LT(loss, prev) << "d=" << d << " h=" << h;
      prev = loss;
    }
  }
}

TEST(PathLoss, FccCurvesUnderPredictLossVsTruthSetup) {
  const double f = channel_center_hz(30);
  // The database model (10 m receiver + optional clutter term) predicts
  // less loss than the 2 m campaign truth — the overprotection source.
  const HataUrbanModel truth(f, 60.0, 2.0);
  const FccCurvesModel db(f, 60.0, 3.0);
  EXPECT_LT(db.path_loss_db(15'000.0), truth.path_loss_db(15'000.0));
}

TEST(Shadowing, StatisticsMatchConfiguration) {
  const geo::BoundingBox region{0.0, 0.0, 20'000.0, 20'000.0};
  const ShadowingField field(region, 100.0, 5.0, 300.0, 99);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> coord(0.0, 20'000.0);
  double sum = 0.0, ss = 0.0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    const double v = field.sample_db(geo::EnuPoint{coord(rng), coord(rng)});
    sum += v;
    ss += v * v;
  }
  const double mean = sum / kN;
  const double stddev = std::sqrt(ss / kN - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.5);
  EXPECT_NEAR(stddev, 5.0, 0.8);
}

TEST(Shadowing, CorrelationDecaysWithDistance) {
  const geo::BoundingBox region{0.0, 0.0, 30'000.0, 30'000.0};
  const ShadowingField field(region, 100.0, 5.0, 400.0, 7);
  std::mt19937_64 rng(8);
  std::uniform_real_distribution<double> coord(2000.0, 28'000.0);
  const auto corr_at = [&](double lag) {
    double sxy = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0;
    constexpr int kN = 8000;
    for (int i = 0; i < kN; ++i) {
      const geo::EnuPoint a{coord(rng), coord(rng)};
      const geo::EnuPoint b{a.east_m + lag, a.north_m};
      const double x = field.sample_db(a);
      const double y = field.sample_db(b);
      sx += x;
      sy += y;
      sxx += x * x;
      syy += y * y;
      sxy += x * y;
    }
    const double n = kN;
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    const double vy = syy / n - (sy / n) * (sy / n);
    return cov / std::sqrt(vx * vy);
  };
  const double c_near = corr_at(100.0);
  const double c_mid = corr_at(400.0);
  const double c_far = corr_at(3000.0);
  EXPECT_GT(c_near, 0.6);
  EXPECT_GT(c_near, c_mid);
  EXPECT_GT(c_mid, c_far);
  EXPECT_LT(std::abs(c_far), 0.2);
}

TEST(Shadowing, DeterministicPerSeedAndClampsOutside) {
  const geo::BoundingBox region{0.0, 0.0, 5000.0, 5000.0};
  const ShadowingField a(region, 100.0, 4.0, 250.0, 3);
  const ShadowingField b(region, 100.0, 4.0, 250.0, 3);
  const ShadowingField c(region, 100.0, 4.0, 250.0, 4);
  const geo::EnuPoint p{1234.0, 4321.0};
  EXPECT_DOUBLE_EQ(a.sample_db(p), b.sample_db(p));
  EXPECT_NE(a.sample_db(p), c.sample_db(p));
  // Outside points clamp to edge values (finite, no crash).
  const double outside = a.sample_db(geo::EnuPoint{-1e6, 1e6});
  EXPECT_TRUE(std::isfinite(outside));
}

TEST(Shadowing, RejectsBadConfiguration) {
  const geo::BoundingBox region{0.0, 0.0, 1000.0, 1000.0};
  EXPECT_THROW(ShadowingField(region, 0.0, 5.0, 250.0, 1),
               std::invalid_argument);
  EXPECT_THROW(ShadowingField(region, 100.0, 5.0, 0.0, 1),
               std::invalid_argument);
  const geo::BoundingBox empty{0.0, 0.0, 0.0, 1000.0};
  EXPECT_THROW(ShadowingField(empty, 100.0, 5.0, 250.0, 1),
               std::invalid_argument);
}

TEST(Obstacles, AttenuationProfile) {
  const ObstacleField field({Obstacle{.center = geo::EnuPoint{0.0, 0.0},
                                      .radius_m = 1000.0,
                                      .attenuation_db = 20.0,
                                      .taper_m = 200.0}});
  EXPECT_DOUBLE_EQ(field.attenuation_db(geo::EnuPoint{0.0, 0.0}), 20.0);
  EXPECT_DOUBLE_EQ(field.attenuation_db(geo::EnuPoint{999.0, 0.0}), 20.0);
  const double mid = field.attenuation_db(geo::EnuPoint{1100.0, 0.0});
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 20.0);
  EXPECT_DOUBLE_EQ(field.attenuation_db(geo::EnuPoint{1300.0, 0.0}), 0.0);
}

TEST(Obstacles, OverlappingObstaclesSum) {
  const Obstacle o{.center = geo::EnuPoint{0.0, 0.0},
                   .radius_m = 500.0,
                   .attenuation_db = 10.0};
  const ObstacleField field({o, o});
  EXPECT_DOUBLE_EQ(field.attenuation_db(geo::EnuPoint{0.0, 0.0}), 20.0);
}

TEST(Obstacles, RandomFieldRespectsBounds) {
  const geo::BoundingBox region{0.0, 0.0, 10'000.0, 10'000.0};
  const ObstacleField field =
      ObstacleField::random(region, 25, 300.0, 900.0, 5.0, 15.0, 77);
  ASSERT_EQ(field.obstacles().size(), 25u);
  for (const Obstacle& o : field.obstacles()) {
    EXPECT_TRUE(region.contains(o.center));
    EXPECT_GE(o.radius_m, 300.0);
    EXPECT_LE(o.radius_m, 900.0);
    EXPECT_GE(o.attenuation_db, 5.0);
    EXPECT_LE(o.attenuation_db, 15.0);
  }
}

TEST(Environment, MetroEnvironmentHasPaperChannels) {
  const Environment env = make_metro_environment();
  for (const int ch : kPaperChannels) {
    EXPECT_FALSE(env.transmitters_on(ch).empty()) << "channel " << ch;
  }
  EXPECT_TRUE(env.transmitters_on(20).empty());
}

TEST(Environment, SignalStrongNearTowerWeakFar) {
  const Environment env = make_metro_environment();
  const Transmitter* tx = env.transmitters_on(27).front();
  const geo::EnuPoint near{tx->location.east_m + 500.0,
                           tx->location.north_m};
  const geo::EnuPoint far{tx->location.east_m + 200'000.0,
                          tx->location.north_m};
  EXPECT_GT(env.true_rss_dbm(27, near), env.true_rss_dbm(27, far));
  EXPECT_GT(env.true_rss_dbm(27, near), kDecodableThresholdDbm);
}

TEST(Environment, SilentChannelReturnsFloor) {
  const Environment env = make_metro_environment();
  EXPECT_LE(env.true_rss_dbm(20, geo::EnuPoint{13'000.0, 13'000.0}), -190.0);
}

TEST(Environment, AntennaCorrectionNearPaperConstant) {
  const Environment env = make_metro_environment();
  EXPECT_NEAR(env.antenna_correction_db(), 7.5, 0.3);
}

// true_rss_dbm answers at the 2 m campaign height and signal_decodable at
// the 10 m reference height: wherever 2 m clears the threshold 10 m does
// too, and somewhere only 10 m does.
TEST(Environment, HigherAntennaSeesMore) {
  const Environment env = make_metro_environment();
  int only_reference = 0;
  for (double east = 0.0; east <= 26'500.0; east += 500.0) {
    for (double north = 0.0; north <= 26'500.0; north += 500.0) {
      const geo::EnuPoint p{east, north};
      const bool campaign = env.true_rss_dbm(15, p) >= kDecodableThresholdDbm;
      const bool reference = env.signal_decodable(15, p);
      EXPECT_TRUE(reference || !campaign) << east << ", " << north;
      only_reference += reference && !campaign ? 1 : 0;
    }
  }
  EXPECT_GT(only_reference, 0);
}

TEST(Environment, RejectsInvalidChannelTransmitter) {
  EnvironmentConfig cfg;
  EXPECT_THROW(Environment(cfg, {Transmitter{.location = {}, .channel = 99}}),
               std::invalid_argument);
}

TEST(Environment, FullyOccupiedChannelsBlanketTheRegion) {
  // Channels 27/39 are decodable almost everywhere; the rare exceptions
  // are deep obstruction pockets, which Algorithm 1's 6 km dilation labels
  // not-safe anyway (checked in the campaign tests).
  const Environment env = make_metro_environment();
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> coord(0.0, 26'500.0);
  for (const int ch : {27, 39}) {
    int decodable = 0;
    constexpr int kProbes = 200;
    for (int i = 0; i < kProbes; ++i) {
      const geo::EnuPoint p{coord(rng), coord(rng)};
      decodable += env.signal_decodable(ch, p) ? 1 : 0;
    }
    EXPECT_GT(decodable, static_cast<int>(0.9 * kProbes)) << "channel " << ch;
  }
}

TEST(Seasonal, VariantKeepsInfrastructureChangesSeason) {
  const Environment base = make_metro_environment();
  const Environment later = seasonal_variant(base);
  // Towers and buildings stay put...
  ASSERT_EQ(later.transmitters().size(), base.transmitters().size());
  for (std::size_t i = 0; i < base.transmitters().size(); ++i) {
    EXPECT_EQ(later.transmitters()[i].location,
              base.transmitters()[i].location);
  }
  ASSERT_EQ(later.obstacles().obstacles().size(),
            base.obstacles().obstacles().size());
  for (std::size_t i = 0; i < base.obstacles().obstacles().size(); ++i) {
    EXPECT_EQ(later.obstacles().obstacles()[i].center,
              base.obstacles().obstacles()[i].center);
    // ...but foliage deepens every obstruction.
    EXPECT_NEAR(later.obstacles().obstacles()[i].attenuation_db,
                base.obstacles().obstacles()[i].attenuation_db + 2.0, 1e-9);
  }
  // Small-scale shadowing re-rolls: point RSS differs...
  const geo::EnuPoint p{9000.0, 9000.0};
  EXPECT_NE(base.true_rss_dbm(46, p), later.true_rss_dbm(46, p));
  // ...but the large-scale field barely moves (same towers, same medians).
  double diff = 0.0;
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> coord(0.0, 26'500.0);
  constexpr int kProbes = 200;
  for (int i = 0; i < kProbes; ++i) {
    const geo::EnuPoint q{coord(rng), coord(rng)};
    diff += base.true_rss_dbm(46, q) - later.true_rss_dbm(46, q);
  }
  EXPECT_NEAR(std::abs(diff) / kProbes, 0.0, 1.5);
}

// The grid-bucketed obstacle query must agree bit for bit with a direct
// scan over every obstacle — same terms, same FP sum order.
TEST(ObstacleField, GridMatchesBruteForceBitForBit) {
  const geo::BoundingBox region{0.0, 0.0, 26'500.0, 26'500.0};
  const ObstacleField field =
      ObstacleField::random(region, 40, 600.0, 2'800.0, 12.0, 28.0, 77);

  const auto brute_force = [&field](const geo::EnuPoint& p) {
    double total = 0.0;
    for (const Obstacle& o : field.obstacles()) {
      const double d = geo::distance_m(p, o.center);
      if (d <= o.radius_m) {
        total += o.attenuation_db;
      } else if (d < o.radius_m + o.taper_m) {
        const double t = (d - o.radius_m) / o.taper_m;
        total += o.attenuation_db * 0.5 *
                 (1.0 + std::cos(std::numbers::pi * t));
      }
    }
    return total;
  };

  std::mt19937_64 rng(78);
  // Cover well beyond the region so out-of-grid points are exercised too.
  std::uniform_real_distribution<double> coord(-10'000.0, 36'500.0);
  for (int i = 0; i < 3000; ++i) {
    const geo::EnuPoint p{coord(rng), coord(rng)};
    ASSERT_EQ(field.attenuation_db(p), brute_force(p))
        << "(" << p.east_m << ", " << p.north_m << ")";
  }
  EXPECT_EQ(ObstacleField().attenuation_db({100.0, 100.0}), 0.0);
}

TEST(Environment, TransmittersOnServedFromIndex) {
  const Environment env = make_metro_environment();
  // The index must agree with a direct scan, in transmitter order.
  for (const int ch : kPaperChannels) {
    std::vector<const Transmitter*> expected;
    for (const Transmitter& tx : env.transmitters()) {
      if (tx.channel == ch) expected.push_back(&tx);
    }
    const auto& got = env.transmitters_on(ch);
    ASSERT_EQ(got.size(), expected.size()) << "channel " << ch;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "channel " << ch;
    }
    // Repeated calls serve the same cached vector, not a fresh allocation.
    EXPECT_EQ(&env.transmitters_on(ch), &got);
  }
  EXPECT_TRUE(env.transmitters_on(20).empty());
}

// Copies and moves must rebuild the channel index against their own
// transmitter storage (no dangling pointers into the source).
TEST(Environment, CopyAndMoveRebindTheIndex) {
  const Environment base = make_metro_environment();
  const Environment copy = base;  // NOLINT(performance-unnecessary-copy...)
  for (const Transmitter* tx : copy.transmitters_on(46)) {
    EXPECT_GE(tx, copy.transmitters().data());
    EXPECT_LT(tx, copy.transmitters().data() + copy.transmitters().size());
  }
  const geo::EnuPoint p{8'000.0, 12'000.0};
  EXPECT_EQ(copy.true_rss_dbm(46, p), base.true_rss_dbm(46, p));

  Environment moved = std::move(const_cast<Environment&>(copy));
  for (const Transmitter* tx : moved.transmitters_on(46)) {
    EXPECT_GE(tx, moved.transmitters().data());
    EXPECT_LT(tx, moved.transmitters().data() + moved.transmitters().size());
  }
  EXPECT_EQ(moved.true_rss_dbm(46, p), base.true_rss_dbm(46, p));
}

// The hoisted Hata constants must not move any value: the model built once
// and queried many times equals per-call reconstruction.
TEST(PathLoss, HataHoistedConstantsBitIdentical) {
  for (const double f_hz : {470e6, 600e6, 700e6}) {
    for (const double hb : {40.0, 60.0, 150.0}) {
      for (const double hm : {1.5, 2.0, 5.5, 10.0}) {
        const HataUrbanModel once(f_hz, hb, hm);
        for (const double d : {50.0, 1'000.0, 12'345.0, 40'000.0}) {
          const HataUrbanModel fresh(f_hz, hb, hm);
          ASSERT_EQ(once.path_loss_db(d), fresh.path_loss_db(d));
        }
      }
    }
  }
}

}  // namespace
}  // namespace waldo::rf
