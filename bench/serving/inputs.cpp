#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "waldo/campaign/wardrive.hpp"
#include "waldo/geo/grid_index.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/sensors/sensor.hpp"

namespace serving {

using namespace waldo;

namespace {
constexpr std::uint64_t kWorldSeed = 99;
constexpr int kContributors = 256;
}  // namespace

core::ModelConstructorConfig serving_model_config() {
  core::ModelConstructorConfig mc;
  mc.classifier = "naive_bayes";
  mc.num_features = 2;
  mc.num_localities = 3;
  return mc;
}

core::UploadPolicy serving_policy(std::size_t rebuild_threshold) {
  core::UploadPolicy policy;
  policy.rebuild_threshold = rebuild_threshold;
  return policy;
}

std::vector<campaign::ChannelDataset> make_world(std::size_t readings) {
  const rf::Environment env = rf::make_metro_environment();
  const geo::DrivePath route =
      campaign::standard_route(env, readings, kWorldSeed);
  std::vector<campaign::ChannelDataset> world;
  for (const int channel : kChannels) {
    sensors::Sensor sensor(sensors::usrp_b200_spec(),
                           1000 + 10 * static_cast<std::uint64_t>(channel) + 1);
    if (!sensor.calibration().has_value()) sensor.calibrate();
    campaign::ChannelDataset ds =
        campaign::collect_channel(env, sensor, channel, route.readings);
    geo::EnuPoint centroid{};
    for (const campaign::Measurement& m : ds.readings) {
      centroid.east_m += m.position.east_m;
      centroid.north_m += m.position.north_m;
    }
    const double n = static_cast<double>(ds.readings.size());
    for (campaign::Measurement& m : ds.readings) {
      m.position.east_m -= centroid.east_m / n;
      m.position.north_m -= centroid.north_m / n;
    }
    world.push_back(std::move(ds));
  }
  return world;
}

std::vector<TileInput> make_tiles(
    const std::vector<campaign::ChannelDataset>& world, std::int32_t side) {
  const cluster::Tiling tiling(kTileSizeM);
  std::vector<TileInput> tiles;
  for (std::int32_t ty = 0; ty < side; ++ty) {
    for (std::int32_t tx = 0; tx < side; ++tx) {
      TileInput t;
      t.tile = cluster::TileKey{.tx = tx, .ty = ty};
      t.center = tiling.center(t.tile);
      for (const campaign::ChannelDataset& sweep : world) {
        campaign::ChannelDataset moved = sweep;
        for (campaign::Measurement& m : moved.readings) {
          m.position.east_m += t.center.east_m;
          m.position.north_m += t.center.north_m;
        }
        t.sweeps.push_back(std::move(moved));
      }
      tiles.push_back(std::move(t));
    }
  }
  return tiles;
}

BatchMaker::BatchMaker(std::vector<const campaign::ChannelDataset*> sweeps,
                       std::vector<geo::EnuPoint> centers)
    : sweeps_(std::move(sweeps)),
      centers_(std::move(centers)),
      covered_(sweeps_.size()),
      used_(sweeps_.size() * kStreams, 0) {
  for (std::size_t key = 0; key < sweeps_.size(); ++key) {
    const std::vector<geo::EnuPoint> positions = sweeps_[key]->positions();
    const geo::GridIndex index(positions, 1'000.0);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (index.query_radius(positions[i], 900.0).size() >= 4) {
        covered_[key].push_back(i);
      }
    }
    if (covered_[key].empty()) {
      throw std::invalid_argument("a sweep has no well-covered reading");
    }
  }
  constexpr double kSpacing = 1'050.0;
  for (double x = -95'000.0; x <= 95'000.0; x += kSpacing) {
    for (double y = -95'000.0; y <= 95'000.0; y += kSpacing) {
      if (std::max(std::abs(x), std::abs(y)) >= 45'000.0) {
        cells_.push_back({.east_m = x, .north_m = y});
      }
    }
  }
  std::mt19937_64 shuffle_rng(kWorldSeed);
  std::shuffle(cells_.begin(), cells_.end(), shuffle_rng);
}

Batch BatchMaker::make(std::mt19937_64& rng, std::size_t key,
                       std::uint32_t stream) {
  const campaign::ChannelDataset& sweep = *sweeps_.at(key);
  const std::vector<std::size_t>& covered = covered_[key];
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> jitter(-40.0, 40.0);
  std::uniform_int_distribution<std::size_t> pick(0, covered.size() - 1);
  const std::size_t cells_per_stream = cells_.size() / kStreams;
  Batch batch;
  batch.key = static_cast<std::uint32_t>(key);
  batch.contributor =
      "dev" + std::to_string(rng() % static_cast<std::uint64_t>(kContributors));
  for (std::size_t r = 0; r < kBatchReadings; ++r) {
    campaign::Measurement m = sweep.readings[covered[pick(rng)]];
    m.iq.clear();
    const double kind = unit(rng);
    if (kind < 0.9) {
      m.position.east_m += jitter(rng);
      m.position.north_m += jitter(rng);
      if (kind >= 0.8) m.rss_dbm += 20.0;  // poisoned
    } else {
      std::uint32_t& used = used_[stream * sweeps_.size() + key];
      const geo::EnuPoint& cell =
          cells_[stream * cells_per_stream + used++ % cells_per_stream];
      m.position.east_m = centers_[key].east_m + cell.east_m;
      m.position.north_m = centers_[key].north_m + cell.north_m;
    }
    batch.readings.push_back(std::move(m));
  }
  return batch;
}

}  // namespace serving
