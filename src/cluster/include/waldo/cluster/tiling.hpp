// Geographic partitioning for the clustered spectrum database.
//
// The world plane is cut into square tiles of `tile_size_m` metres; a tile
// is the unit of placement and replication. Each tile carries the FULL
// per-channel state for its area (its own campaign datasets, upload log
// and models) — the paper's models are per-metro-area to begin with, so a
// tile maps naturally to "one served area". Keeping whole channels inside
// one tile is what preserves the repo's determinism contract: a tile's
// models stay byte-identical to a single-node serial replay of that tile's
// upload stream.
//
// Placement is rendezvous (highest-random-weight) hashing: every node
// scores hash(node, tile) and the replica set is the top-R scorers. HRW
// needs no coordination, no ring state, and moves only ~1/N of tiles when
// the node count changes — and, unlike consistent-hash rings, placement is
// a pure function of (tile, num_nodes, R) so every router and node
// computes identical replica sets forever.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "waldo/geo/latlon.hpp"

namespace waldo::cluster {

using NodeId = std::uint32_t;

struct TileKey {
  std::int32_t tx = 0;
  std::int32_t ty = 0;

  friend auto operator<=>(const TileKey&, const TileKey&) = default;
};

class Tiling {
 public:
  /// Throws std::invalid_argument unless tile_size_m > 0.
  explicit Tiling(double tile_size_m);

  /// The tile containing `p` (floor division; tile (0,0) spans
  /// [0, size) x [0, size)). Coordinates beyond the int32 tile range
  /// saturate to its ends, and NaN maps to 0.
  [[nodiscard]] TileKey tile_of(const geo::EnuPoint& p) const noexcept;

  /// Centre of a tile, for diagnostics and synthetic routing.
  [[nodiscard]] geo::EnuPoint center(TileKey tile) const noexcept;

  [[nodiscard]] double tile_size_m() const noexcept { return tile_size_m_; }

 private:
  double tile_size_m_;
};

/// All node ids 0..num_nodes-1 ordered by descending HRW score for `tile`
/// (ties broken by id). The first entry is the tile's preferred primary;
/// the first R entries are its replica set.
[[nodiscard]] std::vector<NodeId> rendezvous_order(TileKey tile,
                                                   NodeId num_nodes);

/// The first min(replication, num_nodes) entries of rendezvous_order —
/// the nodes that hold `tile`, in failover-priority order.
[[nodiscard]] std::vector<NodeId> replica_set(TileKey tile, NodeId num_nodes,
                                              std::size_t replication);

}  // namespace waldo::cluster
