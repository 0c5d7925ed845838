// Workload inputs: the fixed war-drive world, per-tile translated
// datasets, and seeded upload batches. Generated before any timing starts.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "waldo/campaign/measurement.hpp"
#include "waldo/cluster/tiling.hpp"
#include "waldo/core/database.hpp"
#include "waldo/core/model_constructor.hpp"

namespace serving {

inline constexpr int kChannels[] = {15, 46};
inline constexpr std::size_t kNumChannels = 2;
inline constexpr double kTileSizeM = 200'000.0;
inline constexpr std::size_t kBatchReadings = 3;

/// The serving config of the repo's serving benches.
[[nodiscard]] waldo::core::ModelConstructorConfig serving_model_config();

/// Upload policy with the given rebuild threshold (library defaults
/// otherwise).
[[nodiscard]] waldo::core::UploadPolicy serving_policy(
    std::size_t rebuild_threshold);

/// One war-drive sweep per channel over the standard metro route (fixed
/// world seed), re-centred so the readings' centroid is the origin.
[[nodiscard]] std::vector<waldo::campaign::ChannelDataset> make_world(
    std::size_t readings);

/// A tile of the benchmark's grid and its datasets: the world sweeps
/// translated so their centroid sits on the tile's centre.
struct TileInput {
  waldo::cluster::TileKey tile;
  waldo::geo::EnuPoint center;
  std::vector<waldo::campaign::ChannelDataset> sweeps;  ///< per channel
};

/// side x side tiles of kTileSizeM.
[[nodiscard]] std::vector<TileInput> make_tiles(
    const std::vector<waldo::campaign::ChannelDataset>& world,
    std::int32_t side);

/// A key is one (tile, channel): tile = key / kNumChannels.
[[nodiscard]] inline std::size_t tile_of_key(std::size_t key) {
  return key / kNumChannels;
}
[[nodiscard]] inline std::size_t slot_of_key(std::size_t key) {
  return key % kNumChannels;
}
[[nodiscard]] inline int channel_of_key(std::size_t key) {
  return kChannels[slot_of_key(key)];
}

/// One crowd upload of kBatchReadings readings.
struct Batch {
  std::uint32_t key = 0;
  std::string contributor;
  std::vector<waldo::campaign::Measurement> readings;
};

/// Draws upload batches. Each reading is, independently:
///  - ~80 % honest: a trusted reading with at least 4 trusted neighbours
///    within 900 m, jittered +-40 m, so screening can always vouch for it;
///  - ~10 % poisoned: the same, +20 dB;
///  - ~10 % outside trusted coverage: 45-95 km from the sweep's centre, on
///    a lattice cell of its own (cells are 1.05 km apart, beyond the
///    corroboration radius), so it stays pending and is never promoted.
/// With no promotions every ledger accounts for exactly the readings sent.
/// Each stream owns 1/kStreams of the cells per key and reuses them once
/// it has placed that many outside readings on the key.
class BatchMaker {
 public:
  static constexpr std::uint32_t kStreams = 8;

  /// `sweeps[key]` and `centers[key]` describe each key; the sweeps must
  /// outlive the maker.
  BatchMaker(std::vector<const waldo::campaign::ChannelDataset*> sweeps,
             std::vector<waldo::geo::EnuPoint> centers);

  /// A batch for `key` from stream `stream` (< kStreams).
  [[nodiscard]] Batch make(std::mt19937_64& rng, std::size_t key,
                           std::uint32_t stream);

 private:
  std::vector<const waldo::campaign::ChannelDataset*> sweeps_;
  std::vector<waldo::geo::EnuPoint> centers_;
  std::vector<std::vector<std::size_t>> covered_;  ///< per key
  std::vector<waldo::geo::EnuPoint> cells_;        ///< offsets from centre
  std::vector<std::uint32_t> used_;  ///< cells used, per (stream, key)
};

}  // namespace serving
