#include "waldo/cluster/tiling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "waldo/geo/grid_index.hpp"
#include "waldo/runtime/seed.hpp"

namespace waldo::cluster {

Tiling::Tiling(double tile_size_m) : tile_size_m_(tile_size_m) {
  if (!(tile_size_m > 0.0) || !std::isfinite(tile_size_m)) {
    throw std::invalid_argument("tile size must be a positive finite length");
  }
}

namespace {

/// geo::cell_coordinate saturated to the int32 range of a TileKey.
[[nodiscard]] std::int32_t tile_coordinate(double v, double tile_m) noexcept {
  using Limits = std::numeric_limits<std::int32_t>;
  return static_cast<std::int32_t>(
      std::clamp<std::int64_t>(geo::cell_coordinate(v, tile_m), Limits::min(),
                               Limits::max()));
}

}  // namespace

TileKey Tiling::tile_of(const geo::EnuPoint& p) const noexcept {
  return TileKey{.tx = tile_coordinate(p.east_m, tile_size_m_),
                 .ty = tile_coordinate(p.north_m, tile_size_m_)};
}

geo::EnuPoint Tiling::center(TileKey tile) const noexcept {
  return geo::EnuPoint{
      .east_m = (static_cast<double>(tile.tx) + 0.5) * tile_size_m_,
      .north_m = (static_cast<double>(tile.ty) + 0.5) * tile_size_m_};
}

namespace {

/// One HRW score: a SplitMix64 mix of the tile coordinates and node id.
/// Pure function of its inputs — every participant ranks identically.
[[nodiscard]] std::uint64_t hrw_score(TileKey tile, NodeId node) noexcept {
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tile.tx)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(tile.ty));
  return runtime::split_seed(runtime::mix64(packed), node);
}

}  // namespace

std::vector<NodeId> rendezvous_order(TileKey tile, NodeId num_nodes) {
  std::vector<NodeId> order(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) order[n] = n;
  std::sort(order.begin(), order.end(), [tile](NodeId a, NodeId b) {
    const std::uint64_t sa = hrw_score(tile, a);
    const std::uint64_t sb = hrw_score(tile, b);
    return sa != sb ? sa > sb : a < b;
  });
  return order;
}

std::vector<NodeId> replica_set(TileKey tile, NodeId num_nodes,
                                std::size_t replication) {
  std::vector<NodeId> order = rendezvous_order(tile, num_nodes);
  if (replication < order.size()) order.resize(replication);
  return order;
}

}  // namespace waldo::cluster
