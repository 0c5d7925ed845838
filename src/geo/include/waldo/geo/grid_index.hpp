// Uniform-grid spatial indexes over ENU points. Radius queries are the hot
// path of Algorithm 1 labeling (every strong reading poisons all readings
// within 6 km) and of upload screening (Section 3.4: every uploaded reading
// is checked against the trusted readings within 1 km).
//
// GridCells buckets point ids by cell and stores no coordinates, so an
// index kept beside a dataset costs 4 bytes per point; GridIndex owns a
// copy of its points on top of that. Both are append-only.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "waldo/geo/latlon.hpp"

namespace waldo::geo {

/// Index of the grid cell of side `cell_m` that holds coordinate `v`:
/// floor(v / cell_m), clamped to +-2^62 so that coordinates far beyond any
/// map still convert to a defined integer (NaN maps to 0).
[[nodiscard]] inline std::int64_t cell_coordinate(double v,
                                                  double cell_m) noexcept {
  constexpr double kLimit = 0x1p62;
  const double f = std::floor(v / cell_m);
  if (std::isnan(f)) return 0;
  return static_cast<std::int64_t>(std::clamp(f, -kLimit, kLimit));
}

class GridCells {
 public:
  /// `cell_size_m` trades memory for query selectivity; pick it near the
  /// typical query radius. Throws std::invalid_argument unless positive.
  explicit GridCells(double cell_size_m);

  [[nodiscard]] double cell_size_m() const noexcept { return cell_size_m_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Files point `id`, located at `p`, under its cell.
  void insert(std::uint32_t id, const EnuPoint& p);

  /// Calls `fn(id)` for every inserted id whose `position_of(id)` lies
  /// within `radius_m` of `center` (inclusive). `position_of` must return
  /// the position the id was inserted with.
  template <typename PositionOf, typename Fn>
  void for_each_within(const EnuPoint& center, double radius_m,
                       const PositionOf& position_of, const Fn& fn) const {
    if (radius_m < 0.0) return;
    const CellKey c0 = cell_of(EnuPoint{center.east_m - radius_m,
                                        center.north_m - radius_m});
    const CellKey c1 = cell_of(EnuPoint{center.east_m + radius_m,
                                        center.north_m + radius_m});
    const double r2 = radius_m * radius_m;
    for (std::int64_t cx = c0.cx; cx <= c1.cx; ++cx) {
      for (std::int64_t cy = c0.cy; cy <= c1.cy; ++cy) {
        const auto it = cells_.find(CellKey{cx, cy});
        if (it == cells_.end()) continue;
        for (const std::uint32_t id : it->second) {
          const EnuPoint& p = position_of(id);
          const double de = p.east_m - center.east_m;
          const double dn = p.north_m - center.north_m;
          if (de * de + dn * dn <= r2) fn(id);
        }
      }
    }
  }

 private:
  struct CellKey {
    std::int64_t cx;
    std::int64_t cy;
    friend bool operator==(const CellKey&, const CellKey&) = default;
  };
  struct CellKeyHash {
    [[nodiscard]] std::size_t operator()(const CellKey& k) const noexcept {
      const auto h1 = static_cast<std::uint64_t>(k.cx) * 0x9E3779B97F4A7C15ULL;
      const auto h2 = static_cast<std::uint64_t>(k.cy) * 0xC2B2AE3D27D4EB4FULL;
      return static_cast<std::size_t>(h1 ^ (h2 >> 1));
    }
  };

  [[nodiscard]] CellKey cell_of(const EnuPoint& p) const noexcept {
    return CellKey{.cx = cell_coordinate(p.east_m, cell_size_m_),
                   .cy = cell_coordinate(p.north_m, cell_size_m_)};
  }

  double cell_size_m_;
  std::size_t size_ = 0;
  std::unordered_map<CellKey, std::vector<std::uint32_t>, CellKeyHash> cells_;
};

class GridIndex {
 public:
  /// Builds an index over `points`. `cell_size_m` trades memory for query
  /// selectivity; pick it near the typical query radius.
  GridIndex(std::vector<EnuPoint> points, double cell_size_m);

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] double cell_size_m() const noexcept {
    return cells_.cell_size_m();
  }
  [[nodiscard]] const std::vector<EnuPoint>& points() const noexcept {
    return points_;
  }

  /// Appends `p`; returns its index (the previous size()). Queries after
  /// the call see exactly what an index built over all points at once
  /// would see.
  std::size_t insert(const EnuPoint& p);

  /// Indices of all points within `radius_m` of `center` (inclusive).
  [[nodiscard]] std::vector<std::size_t> query_radius(
      const EnuPoint& center, double radius_m) const;

  /// Calls `fn(index)` for every point within `radius_m` of `center`.
  void for_each_within(const EnuPoint& center, double radius_m,
                       const std::function<void(std::size_t)>& fn) const;

  /// Index of the nearest point to `center`, or `size()` if empty. Ties
  /// go to the lowest index.
  [[nodiscard]] std::size_t nearest(const EnuPoint& center) const;

  /// Indices of the k nearest points, closest first.
  [[nodiscard]] std::vector<std::size_t> k_nearest(const EnuPoint& center,
                                                   std::size_t k) const;

 private:
  std::vector<EnuPoint> points_;
  GridCells cells_;
};

}  // namespace waldo::geo
