#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>

#include "waldo/campaign/dataset_io.hpp"
#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/measurement.hpp"
#include "waldo/campaign/truth.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/geo/grid_index.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/sensors/sensor.hpp"

namespace waldo::campaign {
namespace {

TEST(Labeling, StrongReadingPoisonsItsNeighbourhood) {
  // Four readings on a line, 4 km apart; the first is hot.
  const std::vector<geo::EnuPoint> pos{
      {0.0, 0.0}, {4000.0, 0.0}, {8000.0, 0.0}, {12'000.0, 0.0}};
  const std::vector<double> rss{-70.0, -100.0, -100.0, -100.0};
  const auto labels = label_readings(pos, rss);
  EXPECT_EQ(labels[0], ml::kNotSafe);  // hot itself
  EXPECT_EQ(labels[1], ml::kNotSafe);  // within 6 km of the hot reading
  EXPECT_EQ(labels[2], ml::kSafe);     // 8 km away
  EXPECT_EQ(labels[3], ml::kSafe);
}

TEST(Labeling, ThresholdIsExclusive) {
  const std::vector<geo::EnuPoint> pos{{0.0, 0.0}};
  EXPECT_EQ(label_readings(pos, std::vector<double>{-84.0})[0], ml::kSafe);
  EXPECT_EQ(label_readings(pos, std::vector<double>{-83.9})[0],
            ml::kNotSafe);
}

TEST(Labeling, CorrectionFactorShiftsDecisions) {
  const std::vector<geo::EnuPoint> pos{{0.0, 0.0}};
  const std::vector<double> rss{-90.0};
  LabelingConfig cfg;
  EXPECT_EQ(label_readings(pos, rss, cfg)[0], ml::kSafe);
  cfg.correction_db = 7.5;
  EXPECT_EQ(label_readings(pos, rss, cfg)[0], ml::kNotSafe);
}

TEST(Labeling, MoreConservativeThresholdNeverAddsSafeLabels) {
  // Property: lowering the threshold can only convert safe -> not safe.
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> coord(0.0, 20'000.0);
  std::uniform_real_distribution<double> power(-110.0, -70.0);
  std::vector<geo::EnuPoint> pos(300);
  std::vector<double> rss(300);
  for (std::size_t i = 0; i < 300; ++i) {
    pos[i] = geo::EnuPoint{coord(rng), coord(rng)};
    rss[i] = power(rng);
  }
  LabelingConfig strict;
  strict.threshold_dbm = -95.0;
  const auto lax_labels = label_readings(pos, rss);
  const auto strict_labels = label_readings(pos, rss, strict);
  for (std::size_t i = 0; i < 300; ++i) {
    if (lax_labels[i] == ml::kNotSafe) {
      EXPECT_EQ(strict_labels[i], ml::kNotSafe);
    }
  }
}

TEST(Labeling, LargerSeparationNeverAddsSafeLabels) {
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> coord(0.0, 20'000.0);
  std::uniform_real_distribution<double> power(-100.0, -75.0);
  std::vector<geo::EnuPoint> pos(200);
  std::vector<double> rss(200);
  for (std::size_t i = 0; i < 200; ++i) {
    pos[i] = geo::EnuPoint{coord(rng), coord(rng)};
    rss[i] = power(rng);
  }
  LabelingConfig wide;
  wide.separation_m = 10'000.0;
  const auto base = label_readings(pos, rss);
  const auto wider = label_readings(pos, rss, wide);
  for (std::size_t i = 0; i < 200; ++i) {
    if (base[i] == ml::kNotSafe) {
      EXPECT_EQ(wider[i], ml::kNotSafe);
    }
  }
}

TEST(Labeling, SizeMismatchThrows) {
  EXPECT_THROW(label_readings(std::vector<geo::EnuPoint>{{0, 0}},
                              std::vector<double>{}),
               std::invalid_argument);
}

// ------------------------------------------- Algorithm 1 differential

/// label_readings as it was before the cell-pair kernel, kept verbatim:
/// one GridIndex radius query per reading above the threshold.
std::vector<int> oracle_label_readings(std::span<const geo::EnuPoint> positions,
                                       std::span<const double> rss_dbm,
                                       const LabelingConfig& config) {
  if (positions.size() != rss_dbm.size()) {
    throw std::invalid_argument("label_readings: size mismatch");
  }
  std::vector<int> labels(positions.size(), ml::kSafe);
  if (positions.empty()) return labels;

  const geo::GridIndex index(
      std::vector<geo::EnuPoint>(positions.begin(), positions.end()),
      std::max(1.0, config.separation_m / 4.0));

  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (rss_dbm[i] + config.correction_db <= config.threshold_dbm) continue;
    labels[i] = ml::kNotSafe;
    index.for_each_within(positions[i], config.separation_m,
                          [&labels](std::size_t j) {
                            labels[j] = ml::kNotSafe;
                          });
  }
  return labels;
}

struct LabelCase {
  std::vector<geo::EnuPoint> positions;
  std::vector<double> rss;
  LabelingConfig config;
};

/// Readings scattered, snapped to cell edges (and one ulp either side),
/// stacked on each other, or placed exactly one radius from an earlier
/// reading, around the origin or around +-1e7 m; poisoner shares from
/// none to all, RSS sometimes exactly on the threshold.
LabelCase random_label_case(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto pick = [&](std::initializer_list<double> from) {
    return *(from.begin() +
             static_cast<std::ptrdiff_t>(unit(rng) * from.size()));
  };
  LabelCase c;
  c.config.separation_m = pick({6'000.0, 6'000.0, 1'500.0, 2.5, 0.0, -1.0,
                                -6'000.0, 9'137.25 * unit(rng)});
  c.config.correction_db = pick({0.0, 7.5, -10.0});
  const double r = c.config.separation_m;
  const double cell = std::max(1.0, r / 4.0);
  const double origin = pick({0.0, 0.0, 1e7, -1e7, 1e7 + 0.3});
  const double spread = std::max(std::abs(r), 10.0) * pick({0.5, 2.0, 6.0});
  const double poison_share = pick({0.0, 1.0, 0.01, 0.2, unit(rng)});
  const double quiet_top = c.config.threshold_dbm - c.config.correction_db;
  const auto n = static_cast<std::size_t>(unit(rng) * 250.0);
  for (std::size_t i = 0; i < n; ++i) {
    geo::EnuPoint p{origin + spread * unit(rng), origin + spread * unit(rng)};
    const double kind = unit(rng);
    if (kind < 0.2) {
      p = {origin + cell * std::round(spread * unit(rng) / cell),
           origin + cell * std::round(spread * unit(rng) / cell)};
      if (unit(rng) < 0.5) {
        p.east_m = std::nextafter(p.east_m, unit(rng) < 0.5 ? -1e300 : 1e300);
      }
    } else if (kind < 0.45 && !c.positions.empty()) {
      const geo::EnuPoint& q = c.positions[static_cast<std::size_t>(
          unit(rng) * c.positions.size())];
      const double d = std::abs(r);
      switch (static_cast<int>(unit(rng) * 6.0)) {
        case 0: p = {q.east_m + d, q.north_m}; break;
        case 1: p = {q.east_m - d, q.north_m}; break;
        case 2: p = {q.east_m, q.north_m + d}; break;
        case 3: p = {q.east_m + 0.6 * d, q.north_m - 0.8 * d}; break;
        case 4: p = {std::nextafter(q.east_m + d, 1e300), q.north_m}; break;
        default: p = q; break;
      }
    }
    c.positions.push_back(p);
    const double u = unit(rng);
    c.rss.push_back(u < 0.05 ? quiet_top
                    : unit(rng) < poison_share
                        ? quiet_top + 0.001 + 20.0 * u
                        : quiet_top - 30.0 * u);
  }
  return c;
}

TEST(LabelingDifferential, RandomCasesMatchThePerPoisonerOracle) {
  std::mt19937_64 rng(20'170'605);
  std::size_t safe = 0, not_safe = 0, poisoned_neighbours = 0;
  for (int k = 0; k < 3'000; ++k) {
    const LabelCase c = random_label_case(rng);
    const std::vector<int> want =
        oracle_label_readings(c.positions, c.rss, c.config);
    ASSERT_EQ(label_readings(c.positions, c.rss, c.config), want)
        << "case " << k << ", separation " << c.config.separation_m;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const bool quiet =
          c.rss[i] + c.config.correction_db <= c.config.threshold_dbm;
      safe += want[i] == ml::kSafe ? 1 : 0;
      not_safe += want[i] == ml::kNotSafe ? 1 : 0;
      poisoned_neighbours += quiet && want[i] == ml::kNotSafe ? 1 : 0;
    }
  }
  // Both labels occur, and quiet readings get poisoned by neighbours.
  EXPECT_GT(safe, 10'000u);
  EXPECT_GT(not_safe, 10'000u);
  EXPECT_GT(poisoned_neighbours, 5'000u);
}

TEST(LabelingDifferential, EdgeCasesMatchThePerPoisonerOracle) {
  const std::vector<geo::EnuPoint> line{
      {0.0, 0.0}, {6'000.0, 0.0}, {12'000.0, 0.0}, {1e7, -1e7},
      {1e7 + 6'000.0, -1e7}, {-1e7, 1e7}, {-1e7, 1e7 - 5'999.999}};
  const auto expect_same = [](std::span<const geo::EnuPoint> pos,
                              std::span<const double> rss,
                              const LabelingConfig& cfg) {
    EXPECT_EQ(label_readings(pos, rss, cfg), oracle_label_readings(pos, rss, cfg))
        << "separation " << cfg.separation_m << ", correction "
        << cfg.correction_db;
  };
  for (const double separation : {6'000.0, 0.0, -1.0}) {
    for (const double correction : {0.0, 7.5, -10.0}) {
      LabelingConfig cfg;
      cfg.separation_m = separation;
      cfg.correction_db = correction;
      expect_same({}, {}, cfg);
      expect_same(line, std::vector<double>(line.size(), -50.0), cfg);
      expect_same(line, std::vector<double>(line.size(), -120.0), cfg);
      std::vector<double> alternate;
      for (std::size_t i = 0; i < line.size(); ++i) {
        alternate.push_back(i % 2 == 0 ? -80.0 : -90.0);
      }
      expect_same(line, alternate, cfg);
    }
  }
  // A radius query visits only the cells from cell(p - r) to cell(p + r).
  // Here p - r = 4096 exactly, so the query starts at cell 4 (of side
  // 1024 m) and never sees the reading one half-ulp below 4096, in cell 3,
  // although its distance rounds to exactly r (a tie to even). The kernel
  // must leave it SAFE as the oracle does.
  {
    const std::vector<geo::EnuPoint> edge{{8'192.0, 0.0},
                                          {std::nextafter(4'096.0, 0.0), 0.0}};
    const std::vector<double> rss{-50.0, -120.0};
    LabelingConfig cfg;
    cfg.separation_m = 4'096.0;
    const double de = edge[1].east_m - edge[0].east_m;
    ASSERT_LE(de * de, cfg.separation_m * cfg.separation_m);
    EXPECT_EQ(label_readings(edge, rss, cfg),
              (std::vector<int>{ml::kNotSafe, ml::kSafe}));
    expect_same(edge, rss, cfg);
  }
  // The last assertions above include these; spell out the contract.
  EXPECT_TRUE(label_readings({}, {}).empty());
  const std::vector<int> hot =
      label_readings(line, std::vector<double>(line.size(), -50.0));
  EXPECT_EQ(std::count(hot.begin(), hot.end(), ml::kNotSafe),
            static_cast<std::ptrdiff_t>(line.size()));
}

/// The serving benchmark's world: channels 15 and 46 of the seed-99
/// metro war-drive, 5,282 readings each, centred on their centroid.
TEST(LabelingDifferential, ServingWorldChannelsMatchThePerPoisonerOracle) {
  const rf::Environment env = rf::make_metro_environment();
  const geo::DrivePath route = standard_route(env, 5'282, 99);
  for (const int channel : {15, 46}) {
    sensors::Sensor sensor(sensors::usrp_b200_spec(),
                           1000 + 10 * static_cast<std::uint64_t>(channel) + 1);
    if (!sensor.calibration().has_value()) sensor.calibrate();
    ChannelDataset ds = collect_channel(env, sensor, channel, route.readings);
    geo::EnuPoint centroid{};
    for (const Measurement& m : ds.readings) {
      centroid.east_m += m.position.east_m;
      centroid.north_m += m.position.north_m;
    }
    const double n = static_cast<double>(ds.readings.size());
    for (Measurement& m : ds.readings) {
      m.position.east_m -= centroid.east_m / n;
      m.position.north_m -= centroid.north_m / n;
    }
    for (const double correction : {0.0, 7.5}) {
      LabelingConfig cfg;
      cfg.correction_db = correction;
      const std::vector<int> want =
          oracle_label_readings(ds.positions(), ds.rss_values(), cfg);
      EXPECT_EQ(label_readings(ds.positions(), ds.rss_values(), cfg), want)
          << "channel " << channel << ", correction " << correction;
      // Both labels occur without the correction factor; with it, every
      // reading of these two channels is within 6 km of a poisoner.
      const double safe = safe_fraction(want);
      EXPECT_EQ(correction == 0.0, safe > 0.0) << "channel " << channel;
      EXPECT_LT(safe, 1.0) << "channel " << channel;
    }
  }
}

TEST(Labeling, SafeFraction) {
  EXPECT_DOUBLE_EQ(safe_fraction(std::vector<int>{}), 0.0);
  const std::vector<int> labels{ml::kSafe, ml::kSafe, ml::kNotSafe,
                                ml::kSafe};
  EXPECT_DOUBLE_EQ(safe_fraction(labels), 0.75);
}

class CampaignFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new rf::Environment(rf::make_metro_environment());
    route_ = new geo::DrivePath(standard_route(*env_, 800, 5));
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

rf::Environment* CampaignFixture::env_ = nullptr;
geo::DrivePath* CampaignFixture::route_ = nullptr;

TEST_F(CampaignFixture, CollectChannelProducesOneReadingPerRoutePoint) {
  sensors::Sensor rtl(sensors::rtl_sdr_spec(), 3);
  rtl.calibrate();
  const ChannelDataset ds = collect_channel(*env_, rtl, 30, route_->readings);
  EXPECT_EQ(ds.size(), route_->readings.size());
  EXPECT_EQ(ds.channel, 30);
  EXPECT_EQ(ds.sensor_name, "RTL-SDR");
  for (const Measurement& m : ds.readings) {
    EXPECT_TRUE(std::isfinite(m.rss_dbm));
    EXPECT_TRUE(std::isfinite(m.cft_db));
    EXPECT_TRUE(std::isfinite(m.aft_db));
    EXPECT_TRUE(m.iq.empty());  // keep_iq defaults to false
  }
}

TEST_F(CampaignFixture, KeepIqRetainsCaptures) {
  sensors::Sensor rtl(sensors::rtl_sdr_spec(), 4);
  rtl.calibrate();
  const std::vector<geo::EnuPoint> few(route_->readings.begin(),
                                       route_->readings.begin() + 5);
  const ChannelDataset ds =
      collect_channel(*env_, rtl, 30, few, CollectOptions{.keep_iq = true});
  for (const Measurement& m : ds.readings) EXPECT_EQ(m.iq.size(), 256u);
}

TEST_F(CampaignFixture, CalibratedRssTracksTruthForStrongChannel) {
  sensors::Sensor usrp(sensors::usrp_b200_spec(), 5);
  usrp.calibrate();
  const ChannelDataset ds = collect_channel(*env_, usrp, 27, route_->readings);
  double err = 0.0;
  for (const Measurement& m : ds.readings) {
    err += std::abs(m.rss_dbm - m.true_rss_dbm);
  }
  // Fully-occupied channel is far above the floor: calibrated readings
  // track ground truth within the +0.7 dB design margin plus jitter.
  EXPECT_LT(err / static_cast<double>(ds.size()), 2.0);
}

TEST_F(CampaignFixture, OccupiedChannelFullyNotSafe) {
  sensors::Sensor sa(sensors::spectrum_analyzer_spec(), 6);
  const ChannelDataset ds = collect_channel(*env_, sa, 39, route_->readings);
  const auto labels = label_readings(ds.positions(), ds.rss_values());
  EXPECT_DOUBLE_EQ(safe_fraction(labels), 0.0);
}

TEST_F(CampaignFixture, CsvRoundTripPreservesData) {
  sensors::Sensor rtl(sensors::rtl_sdr_spec(), 7);
  rtl.calibrate();
  const std::vector<geo::EnuPoint> few(route_->readings.begin(),
                                       route_->readings.begin() + 20);
  const ChannelDataset ds = collect_channel(*env_, rtl, 46, few);
  std::stringstream ss;
  write_csv(ss, ds);
  const ChannelDataset back = read_csv(ss);
  EXPECT_EQ(back.channel, 46);
  EXPECT_EQ(back.sensor_name, "RTL-SDR");
  ASSERT_EQ(back.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_NEAR(back.readings[i].position.east_m,
                ds.readings[i].position.east_m, 1e-6);
    EXPECT_NEAR(back.readings[i].rss_dbm, ds.readings[i].rss_dbm, 1e-6);
    EXPECT_NEAR(back.readings[i].cft_db, ds.readings[i].cft_db, 1e-6);
  }
}

// Regression: write_csv used setprecision(12), which silently perturbed
// doubles on a write→read round trip (12 significant digits cannot
// reconstruct a binary64). Round-tripping must be bit-exact, including
// for extreme magnitudes, negative zero and denormals.
TEST(DatasetIo, CsvRoundTripIsBitExact) {
  const double awkward[] = {
      -84.0000000001,          // differs from -84.0 only past digit 12
      1e300,                   // huge magnitude
      -0.0,                    // sign must survive
      5e-324,                  // smallest denormal
      0.1,                     // classic non-representable decimal
      -107.38283136917901,     // a real AFT-style value
  };
  ChannelDataset ds;
  ds.channel = 21;
  ds.sensor_name = "bitexact";
  for (const double v : awkward) {
    Measurement m;
    m.position = geo::EnuPoint{v, -v};
    m.raw = v;
    m.rss_dbm = v;
    m.cft_db = v;
    m.aft_db = v;
    m.true_rss_dbm = v;
    ds.readings.push_back(m);
  }
  std::stringstream ss;
  write_csv(ss, ds);
  const ChannelDataset back = read_csv(ss);
  ASSERT_EQ(back.size(), ds.size());
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Measurement& a = ds.readings[i];
    const Measurement& b = back.readings[i];
    EXPECT_EQ(bits(a.position.east_m), bits(b.position.east_m)) << i;
    EXPECT_EQ(bits(a.position.north_m), bits(b.position.north_m)) << i;
    EXPECT_EQ(bits(a.raw), bits(b.raw)) << i;
    EXPECT_EQ(bits(a.rss_dbm), bits(b.rss_dbm)) << i;
    EXPECT_EQ(bits(a.cft_db), bits(b.cft_db)) << i;
    EXPECT_EQ(bits(a.aft_db), bits(b.aft_db)) << i;
    EXPECT_EQ(bits(a.true_rss_dbm), bits(b.true_rss_dbm)) << i;
  }
  // A second trip through text must be byte-identical: the canonical form
  // is a fixed point.
  std::stringstream again;
  write_csv(again, back);
  EXPECT_EQ(ss.str(), again.str());
}

TEST(DatasetIo, RejectsMalformedRows) {
  const std::string header =
      "# waldo-dataset v1 channel=30 sensor=X\n"
      "east_m,north_m,raw,rss_dbm,cft_db,aft_db,true_rss_dbm\n";
  // Space-separated values: the separators must actually be commas.
  std::stringstream spaces(header + "1 2 3 4 5 6 7\n");
  EXPECT_THROW((void)read_csv(spaces), std::runtime_error);
  // Too few fields.
  std::stringstream missing(header + "1,2,3,4\n");
  EXPECT_THROW((void)read_csv(missing), std::runtime_error);
  // Trailing garbage after a complete row.
  std::stringstream trailing(header + "1,2,3,4,5,6,7,extra\n");
  EXPECT_THROW((void)read_csv(trailing), std::runtime_error);
  // A well-formed row still parses.
  std::stringstream good(header + "1,2,3,4,5,6,7\n");
  const ChannelDataset ok = read_csv(good);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_DOUBLE_EQ(ok.readings[0].aft_db, 6.0);
}

TEST(DatasetIo, RejectsGarbage) {
  std::stringstream ss("not a dataset\n");
  EXPECT_THROW(read_csv(ss), std::runtime_error);
  std::stringstream truncated("# waldo-dataset v1 channel=30 sensor=X\n");
  EXPECT_THROW(read_csv(truncated), std::runtime_error);
}

TEST_F(CampaignFixture, TruthLabelerMatchesOccupancy) {
  const GroundTruthLabeler truth27(*env_, 27);
  EXPECT_NEAR(truth27.safe_area_fraction(), 0.0, 1e-9);
  const GroundTruthLabeler truth17(*env_, 17);
  EXPECT_GT(truth17.safe_area_fraction(), 0.5);
}

TEST_F(CampaignFixture, TruthAgreesWithMeasuredLabels) {
  sensors::Sensor sa(sensors::spectrum_analyzer_spec(), 8);
  const ChannelDataset ds = collect_channel(*env_, sa, 46, route_->readings);
  const auto measured = label_readings(ds.positions(), ds.rss_values());
  const GroundTruthLabeler truth(*env_, 46);
  const auto expected = truth.label_all(ds.positions());
  const auto cm = ml::compare_labels(measured, expected);
  // Measured Algorithm 1 labels approximate the analytic truth; deviations
  // concentrate at the contour (sampling + sensor noise).
  EXPECT_LT(cm.error_rate(), 0.15);
}

TEST(Truth, RejectsCoarseGrid) {
  const rf::Environment env = rf::make_metro_environment();
  LabelingConfig cfg;
  EXPECT_THROW(GroundTruthLabeler(env, 30, cfg, 5000.0),
               std::invalid_argument);
  EXPECT_THROW(GroundTruthLabeler(env, 30, cfg, 0.0), std::invalid_argument);
}

TEST(Truth, CorrectionShrinksSafeArea) {
  const rf::Environment env = rf::make_metro_environment();
  LabelingConfig plain;
  LabelingConfig corrected;
  corrected.correction_db = 7.5;
  const GroundTruthLabeler a(env, 46, plain, 500.0);
  const GroundTruthLabeler b(env, 46, corrected, 500.0);
  EXPECT_GT(a.safe_area_fraction(), b.safe_area_fraction());
}

TEST(StandardRoute, CoversTheRegion) {
  const rf::Environment env = rf::make_metro_environment();
  const geo::DrivePath route = standard_route(env, 2000, 11);
  EXPECT_EQ(route.readings.size(), 2000u);
  const geo::BoundingBox box = geo::BoundingBox::of(route.readings);
  EXPECT_GT(box.area_km2(), 100.0);
  for (const geo::EnuPoint& p : route.readings) {
    EXPECT_TRUE(env.config().region.contains(p));
  }
}

}  // namespace
}  // namespace waldo::campaign
