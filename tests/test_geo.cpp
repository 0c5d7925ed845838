#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "waldo/geo/drive_path.hpp"
#include "waldo/geo/grid_index.hpp"
#include "waldo/geo/latlon.hpp"

namespace waldo::geo {
namespace {

// Great-circle (haversine) distance between two coordinates in meters: the
// reference the local ENU projection is checked against.
double haversine_m(const LatLon& a, const LatLon& b) {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double dlat = lat2 - lat1;
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusM * std::asin(std::sqrt(std::min(1.0, h)));
}

TEST(LatLon, HaversineKnownDistance) {
  // Atlanta city hall to Georgia Tech: ~3.6 km.
  const LatLon city_hall{33.7490, -84.3880};
  const LatLon gatech{33.7756, -84.3963};
  const double d = haversine_m(city_hall, gatech);
  EXPECT_NEAR(d, 3060.0, 300.0);
}

TEST(LatLon, HaversineZeroAndSymmetry) {
  const LatLon a{33.7, -84.4};
  const LatLon b{33.9, -84.1};
  EXPECT_DOUBLE_EQ(haversine_m(a, a), 0.0);
  EXPECT_DOUBLE_EQ(haversine_m(a, b), haversine_m(b, a));
}

TEST(LocalProjection, RoundTripIsAccurate) {
  const LocalProjection proj(LatLon{33.749, -84.388});
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> dlat(-0.12, 0.12);
  std::uniform_real_distribution<double> dlon(-0.15, 0.15);
  for (int i = 0; i < 200; ++i) {
    const LatLon p{33.749 + dlat(rng), -84.388 + dlon(rng)};
    const LatLon back = proj.to_latlon(proj.to_enu(p));
    EXPECT_NEAR(back.lat_deg, p.lat_deg, 1e-9);
    EXPECT_NEAR(back.lon_deg, p.lon_deg, 1e-9);
  }
}

TEST(LocalProjection, DistancesMatchHaversineAtMetroScale) {
  const LatLon origin{33.749, -84.388};
  const LocalProjection proj(origin);
  const LatLon p{33.85, -84.25};
  const double enu_d = distance_m(proj.to_enu(origin), proj.to_enu(p));
  const double hav_d = haversine_m(origin, p);
  EXPECT_NEAR(enu_d / hav_d, 1.0, 0.005);
}

TEST(BoundingBox, ExpandAndContains) {
  BoundingBox box{1e18, 1e18, -1e18, -1e18};
  box.expand(EnuPoint{0.0, 0.0});
  box.expand(EnuPoint{100.0, 50.0});
  EXPECT_TRUE(box.contains(EnuPoint{50.0, 25.0}));
  EXPECT_FALSE(box.contains(EnuPoint{150.0, 25.0}));
  EXPECT_DOUBLE_EQ(box.width_m(), 100.0);
  EXPECT_DOUBLE_EQ(box.height_m(), 50.0);
  EXPECT_DOUBLE_EQ(box.area_km2(), 100.0 * 50.0 / 1e6);
}

TEST(BoundingBox, OfRange) {
  const std::vector<EnuPoint> pts{{1.0, 2.0}, {-3.0, 5.0}, {4.0, -1.0}};
  const BoundingBox box = BoundingBox::of(pts);
  EXPECT_DOUBLE_EQ(box.min_east_m, -3.0);
  EXPECT_DOUBLE_EQ(box.max_east_m, 4.0);
  EXPECT_DOUBLE_EQ(box.min_north_m, -1.0);
  EXPECT_DOUBLE_EQ(box.max_north_m, 5.0);
}

class GridIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridIndexProperty, RadiusQueryMatchesBruteForce) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> coord(-5000.0, 5000.0);
  std::vector<EnuPoint> pts(400);
  for (auto& p : pts) p = EnuPoint{coord(rng), coord(rng)};
  const GridIndex index(pts, 700.0);

  std::uniform_real_distribution<double> radius(10.0, 4000.0);
  for (int q = 0; q < 20; ++q) {
    const EnuPoint center{coord(rng), coord(rng)};
    const double r = radius(rng);
    auto got = index.query_radius(center, r);
    std::sort(got.begin(), got.end());
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (distance_m(pts[i], center) <= r) want.push_back(i);
    }
    EXPECT_EQ(got, want);
  }
}

TEST_P(GridIndexProperty, NearestMatchesBruteForce) {
  std::mt19937_64 rng(GetParam() + 1000);
  std::uniform_real_distribution<double> coord(-3000.0, 3000.0);
  std::vector<EnuPoint> pts(150);
  for (auto& p : pts) p = EnuPoint{coord(rng), coord(rng)};
  const GridIndex index(pts, 400.0);
  for (int q = 0; q < 30; ++q) {
    const EnuPoint center{coord(rng), coord(rng)};
    const std::size_t got = index.nearest(center);
    std::size_t want = 0;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (distance_m(pts[i], center) < distance_m(pts[want], center)) {
        want = i;
      }
    }
    EXPECT_DOUBLE_EQ(distance_m(pts[got], center),
                     distance_m(pts[want], center));
  }
}

// GridCells, the coordinate-free core that labeling and screening grow
// reading by reading, answers exactly like a GridIndex built over all
// points at once, and both like brute force — also when queries are
// interleaved with the inserts.
TEST_P(GridIndexProperty, InsertMatchesBulkBuildAndBruteForce) {
  std::mt19937_64 rng(GetParam() + 3000);
  std::uniform_real_distribution<double> coord(-4000.0, 4000.0);
  std::uniform_real_distribution<double> radius(0.0, 2500.0);
  std::vector<EnuPoint> pts;
  GridCells cells(600.0);
  const auto sorted = [](std::vector<std::size_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 60; ++i) {
      const EnuPoint p{coord(rng), coord(rng)};
      cells.insert(static_cast<std::uint32_t>(pts.size()), p);
      pts.push_back(p);
    }
    ASSERT_EQ(cells.size(), pts.size());
    const GridIndex bulk(pts, 600.0);
    EXPECT_EQ(bulk.points(), pts);
    for (int q = 0; q < 20; ++q) {
      const EnuPoint center{coord(rng), coord(rng)};
      const double r = radius(rng);
      std::vector<std::size_t> want;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (distance_m(pts[i], center) <= r) want.push_back(i);
      }
      std::vector<std::size_t> from_cells;
      cells.for_each_within(
          center, r,
          [&](std::uint32_t i) -> const EnuPoint& { return pts[i]; },
          [&](std::uint32_t i) { from_cells.push_back(i); });
      EXPECT_EQ(sorted(bulk.query_radius(center, r)), want);
      EXPECT_EQ(sorted(from_cells), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridIndexProperty,
                         ::testing::Values(1, 2, 3, 42, 1337));

TEST(GridIndex, EmptyAndEdgeCases) {
  const GridIndex empty({}, 100.0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.query_radius(EnuPoint{0, 0}, 1000.0).empty());
  EXPECT_THROW(GridIndex({}, 0.0), std::invalid_argument);
  EXPECT_THROW(GridIndex({}, -5.0), std::invalid_argument);
  EXPECT_THROW(GridCells(0.0), std::invalid_argument);

  const GridIndex single({EnuPoint{10.0, 20.0}}, 100.0);
  EXPECT_EQ(single.nearest(EnuPoint{1e6, 1e6}), 0u);
  EXPECT_TRUE(single.query_radius(EnuPoint{10.0, 20.0}, 0.0).size() == 1);
  EXPECT_TRUE(single.query_radius(EnuPoint{10.0, 21.0}, -1.0).empty());
}

// nearest() against a brute-force scan that keeps the lowest index on
// ties, on sets where the ring search answers (dense), where it gives way
// to the linear scan (sparse, far queries), and where many points are
// exactly equidistant (a lattice with duplicated points, queried at cell
// centres and lattice midpoints).
TEST(GridIndex, NearestMatchesBruteForceWithLowestIndexTies) {
  const auto brute = [](const std::vector<EnuPoint>& pts, EnuPoint c) {
    std::size_t best = pts.size();
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double de = pts[i].east_m - c.east_m;
      const double dn = pts[i].north_m - c.north_m;
      if (de * de + dn * dn < best_d2) {
        best_d2 = de * de + dn * dn;
        best = i;
      }
    }
    return best;
  };
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto check = [&](const std::vector<EnuPoint>& pts, double cell,
                         const std::vector<EnuPoint>& queries) {
    const GridIndex index(pts, cell);
    for (const EnuPoint& c : queries) {
      EXPECT_EQ(index.nearest(c), brute(pts, c))
          << pts.size() << " points, cell " << cell << ", query (" << c.east_m
          << ", " << c.north_m << ")";
    }
  };

  // Dense: 2,000 points in a 1 km square, queried inside and around it.
  std::vector<EnuPoint> dense;
  for (int i = 0; i < 2000; ++i) {
    dense.push_back({1000.0 * unit(rng), 1000.0 * unit(rng)});
  }
  std::vector<EnuPoint> queries;
  for (int q = 0; q < 200; ++q) {
    queries.push_back({3000.0 * unit(rng) - 1000.0, 3000.0 * unit(rng) - 1000.0});
  }
  check(dense, 50.0, queries);

  // Sparse: a few points scattered over thousands of kilometres of
  // 100 m cells, queried near and far.
  for (const std::size_t n : {1u, 2u, 7u, 40u}) {
    std::vector<EnuPoint> sparse;
    for (std::size_t i = 0; i < n; ++i) {
      sparse.push_back({4e6 * unit(rng) - 2e6, 4e6 * unit(rng) - 2e6});
    }
    std::vector<EnuPoint> far{{1e6, 1e6}, {-1.9e7, 1.9e7}, {0.0, 0.0}};
    for (const EnuPoint& p : sparse) far.push_back({p.east_m + 30.0, p.north_m});
    check(sparse, 100.0, far);
  }

  // Exact ties: a 10 m lattice of 40 x 40 points, every point listed
  // twice and in shuffled order, queried at lattice midpoints (four
  // equidistant points) and on lattice points (two identical ones).
  std::vector<EnuPoint> lattice;
  for (int x = 0; x < 40; ++x) {
    for (int y = 0; y < 40; ++y) {
      lattice.push_back({10.0 * x, 10.0 * y});
      lattice.push_back({10.0 * x, 10.0 * y});
    }
  }
  std::shuffle(lattice.begin(), lattice.end(), rng);
  std::vector<EnuPoint> ties;
  for (int q = 0; q < 150; ++q) {
    const double x = 10.0 * std::floor(unit(rng) * 45.0) - 20.0;
    const double y = 10.0 * std::floor(unit(rng) * 45.0) - 20.0;
    ties.push_back({x + 5.0, y + 5.0});
    ties.push_back({x, y});
  }
  for (const double cell : {7.0, 25.0, 100.0, 1000.0}) {
    check(lattice, cell, ties);
  }
}

// Cell keys of coordinates beyond any map clamp to +-2^62 instead of
// overflowing the float-to-integer cast, which is undefined behaviour.
TEST(GridCells, FarAndNonFiniteCoordinatesHaveDefinedCells) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr std::int64_t kLimit = std::int64_t{1} << 62;
  EXPECT_EQ(cell_coordinate(1e300, 100.0), kLimit);
  EXPECT_EQ(cell_coordinate(-inf, 100.0), -kLimit);
  EXPECT_EQ(cell_coordinate(nan, 100.0), 0);
  EXPECT_EQ(cell_coordinate(-0.5, 1.0), -1);
  EXPECT_EQ(cell_coordinate(2e19, 100.0), std::int64_t{200'000'000'000'000'000});

  const std::vector<EnuPoint> points{
      {1e300, -1e300}, {2e19, 0.0}, {inf, 0.0}, {nan, 5.0}, {10.0, 10.0}};
  GridCells cells(100.0);
  for (std::uint32_t i = 0; i < points.size(); ++i) cells.insert(i, points[i]);
  const auto within = [&](EnuPoint center, double radius) {
    std::vector<std::uint32_t> ids;
    cells.for_each_within(
        center, radius,
        [&](std::uint32_t i) -> const EnuPoint& { return points[i]; },
        [&](std::uint32_t i) { ids.push_back(i); });
    return ids;
  };
  EXPECT_EQ(within({1e300, -1e300}, 1.0), std::vector<std::uint32_t>{0});
  EXPECT_EQ(within({2e19, 0.0}, 1.0), std::vector<std::uint32_t>{1});
  EXPECT_EQ(within({10.0, 10.0}, 50.0), std::vector<std::uint32_t>{4});
}

TEST(DrivePath, ProducesRequestedReadings) {
  DrivePathConfig cfg;
  cfg.num_readings = 500;
  cfg.seed = 7;
  const DrivePath path = generate_drive_path(cfg);
  EXPECT_EQ(path.readings.size(), 500u);
  EXPECT_GT(path.total_length_m, 0.0);
  EXPECT_GT(path.blocks_visited, 10u);
}

TEST(DrivePath, ReadingsStayInRegion) {
  DrivePathConfig cfg;
  cfg.num_readings = 2000;
  cfg.seed = 9;
  const DrivePath path = generate_drive_path(cfg);
  for (const EnuPoint& p : path.readings) {
    EXPECT_GE(p.east_m, -1.0);
    EXPECT_GE(p.north_m, -1.0);
    EXPECT_LE(p.east_m, cfg.region_side_m + 1.0);
    EXPECT_LE(p.north_m, cfg.region_side_m + 1.0);
  }
}

TEST(DrivePath, ConsecutiveSpacingMatchesConfig) {
  DrivePathConfig cfg;
  cfg.num_readings = 300;
  cfg.reading_spacing_m = 120.0;
  const DrivePath path = generate_drive_path(cfg);
  // Consecutive readings are spaced along the path; straight-line distance
  // is at most the spacing (turns shorten it) and positive.
  for (std::size_t i = 1; i < path.readings.size(); ++i) {
    const double d = distance_m(path.readings[i - 1], path.readings[i]);
    EXPECT_GT(d, 0.0);
    EXPECT_LE(d, cfg.reading_spacing_m + 1e-6);
  }
}

TEST(DrivePath, DeterministicPerSeed) {
  DrivePathConfig cfg;
  cfg.num_readings = 100;
  cfg.seed = 11;
  const DrivePath a = generate_drive_path(cfg);
  const DrivePath b = generate_drive_path(cfg);
  ASSERT_EQ(a.readings.size(), b.readings.size());
  for (std::size_t i = 0; i < a.readings.size(); ++i) {
    EXPECT_EQ(a.readings[i], b.readings[i]);
  }
  cfg.seed = 12;
  const DrivePath c = generate_drive_path(cfg);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.readings.size(); ++i) {
    if (!(a.readings[i] == c.readings[i])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(DrivePath, RejectsSub20mSpacing) {
  DrivePathConfig cfg;
  cfg.reading_spacing_m = 15.0;  // under the decorrelation distance
  EXPECT_THROW(generate_drive_path(cfg), std::invalid_argument);
  cfg.reading_spacing_m = 150.0;
  cfg.block_m = 0.0;
  EXPECT_THROW(generate_drive_path(cfg), std::invalid_argument);
}

TEST(DrivePath, CoverageSeekingSpreadsOverTheRegion) {
  // The walk must spread instead of looping: with enough readings the
  // visited-blocks count approaches the driven-length upper bound.
  DrivePathConfig cfg;
  cfg.num_readings = 4000;
  cfg.seed = 21;
  const DrivePath path = generate_drive_path(cfg);
  const double blocks_driven = path.total_length_m / cfg.block_m;
  EXPECT_GT(static_cast<double>(path.blocks_visited), 0.5 * blocks_driven);
  // And the readings' bounding box covers a large share of the region.
  const BoundingBox box = BoundingBox::of(path.readings);
  EXPECT_GT(box.area_km2(),
            0.5 * cfg.region_side_m * cfg.region_side_m / 1e6);
}

TEST(DrivePath, LongerCampaignsVisitMoreBlocks) {
  DrivePathConfig small;
  small.num_readings = 500;
  small.seed = 22;
  DrivePathConfig large = small;
  large.num_readings = 4000;
  EXPECT_LT(generate_drive_path(small).blocks_visited,
            generate_drive_path(large).blocks_visited);
}

}  // namespace
}  // namespace waldo::geo
