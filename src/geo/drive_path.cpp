#include "waldo/geo/drive_path.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "waldo/geo/grid_index.hpp"

namespace waldo::geo {

namespace {

struct Block {
  std::int64_t bx;
  std::int64_t by;
  friend bool operator==(const Block&, const Block&) = default;
};

struct BlockHash {
  [[nodiscard]] std::size_t operator()(const Block& b) const noexcept {
    const auto h1 = static_cast<std::uint64_t>(b.bx) * 0x9E3779B97F4A7C15ULL;
    const auto h2 = static_cast<std::uint64_t>(b.by) * 0xC2B2AE3D27D4EB4FULL;
    return static_cast<std::size_t>(h1 ^ (h2 >> 1));
  }
};

}  // namespace

DrivePath generate_drive_path(const DrivePathConfig& cfg) {
  if (cfg.reading_spacing_m <= 20.0) {
    throw std::invalid_argument(
        "reading spacing must exceed the 20 m shadowing decorrelation "
        "distance");
  }
  if (cfg.block_m <= 0.0 || cfg.region_side_m <= cfg.block_m) {
    throw std::invalid_argument("region must span multiple blocks");
  }

  const auto max_block =
      static_cast<std::int64_t>(cfg.region_side_m / cfg.block_m);
  std::mt19937_64 rng(cfg.seed);
  std::unordered_map<Block, std::uint32_t, BlockHash> visits;

  DrivePath out;
  out.readings.reserve(cfg.num_readings);

  // Current intersection, in block units; start at region center.
  Block cur{max_block / 2, max_block / 2};
  ++visits[cur];
  double leftover_m = 0.0;  // distance carried into the next segment

  static constexpr std::array<std::array<int, 2>, 4> kDirs{
      {{1, 0}, {-1, 0}, {0, 1}, {0, -1}}};

  while (out.readings.size() < cfg.num_readings) {
    // Score each direction by inverse visit count of the target block, with
    // a small uniform floor so the walk is not fully deterministic.
    std::array<double, 4> weight{};
    double total = 0.0;
    for (std::size_t d = 0; d < kDirs.size(); ++d) {
      const Block next{cur.bx + kDirs[d][0], cur.by + kDirs[d][1]};
      if (next.bx < 0 || next.by < 0 || next.bx > max_block ||
          next.by > max_block) {
        weight[d] = 0.0;
        continue;
      }
      const auto it = visits.find(next);
      const double v = (it == visits.end()) ? 0.0 : it->second;
      weight[d] = 1.0 / (1.0 + 4.0 * v) + 0.02;
      total += weight[d];
    }
    std::uniform_real_distribution<double> pick(0.0, total);
    double r = pick(rng);
    std::size_t chosen = 0;
    for (std::size_t d = 0; d < kDirs.size(); ++d) {
      if (r < weight[d]) {
        chosen = d;
        break;
      }
      r -= weight[d];
    }

    const Block next{cur.bx + kDirs[chosen][0], cur.by + kDirs[chosen][1]};
    const EnuPoint from{static_cast<double>(cur.bx) * cfg.block_m,
                        static_cast<double>(cur.by) * cfg.block_m};
    const EnuPoint to{static_cast<double>(next.bx) * cfg.block_m,
                      static_cast<double>(next.by) * cfg.block_m};

    // Emit readings along the segment every reading_spacing_m.
    const double seg_len = distance_m(from, to);
    double pos = cfg.reading_spacing_m - leftover_m;
    while (pos <= seg_len && out.readings.size() < cfg.num_readings) {
      const double t = pos / seg_len;
      out.readings.push_back(
          EnuPoint{from.east_m + t * (to.east_m - from.east_m),
                   from.north_m + t * (to.north_m - from.north_m)});
      pos += cfg.reading_spacing_m;
    }
    leftover_m = seg_len - (pos - cfg.reading_spacing_m);
    out.total_length_m += seg_len;
    cur = next;
    ++visits[cur];
  }

  out.blocks_visited = visits.size();
  return out;
}

}  // namespace waldo::geo
