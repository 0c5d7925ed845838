#include "waldo/geo/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace waldo::geo {

namespace {

/// Ids are 32-bit: an index over more points than that is a caller bug.
[[nodiscard]] std::uint32_t checked_id(std::size_t i) {
  if (i > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("GridIndex holds at most 2^32 points");
  }
  return static_cast<std::uint32_t>(i);
}

}  // namespace

GridCells::GridCells(double cell_size_m) : cell_size_m_(cell_size_m) {
  if (cell_size_m <= 0.0) {
    throw std::invalid_argument("GridIndex cell size must be positive");
  }
}

void GridCells::insert(std::uint32_t id, const EnuPoint& p) {
  cells_[cell_of(p)].push_back(id);
  ++size_;
}

GridIndex::GridIndex(std::vector<EnuPoint> points, double cell_size_m)
    : points_(std::move(points)), cells_(cell_size_m) {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    cells_.insert(checked_id(i), points_[i]);
  }
}

void GridIndex::for_each_within(
    const EnuPoint& center, double radius_m,
    const std::function<void(std::size_t)>& fn) const {
  cells_.for_each_within(
      center, radius_m,
      [this](std::uint32_t i) -> const EnuPoint& { return points_[i]; },
      [&fn](std::uint32_t i) { fn(i); });
}

std::vector<std::size_t> GridIndex::query_radius(const EnuPoint& center,
                                                 double radius_m) const {
  std::vector<std::size_t> out;
  for_each_within(center, radius_m,
                  [&out](std::size_t i) { out.push_back(i); });
  return out;
}

std::size_t GridIndex::nearest(const EnuPoint& center) const {
  double best_d2 = std::numeric_limits<double>::infinity();
  std::size_t best = points_.size();
  const auto consider = [&](std::size_t i) {
    const double de = points_[i].east_m - center.east_m;
    const double dn = points_[i].north_m - center.north_m;
    const double d2 = de * de + dn * dn;
    if (d2 < best_d2 || (d2 == best_d2 && i < best)) {
      best_d2 = d2;
      best = i;
    }
  };
  // Expand the search ring until a hit lies inside it with a margin: a
  // point the ring misses is at least `radius` away up to rounding, so it
  // is strictly farther. Once the ring's window spans more cells than
  // there are points, a linear scan is cheaper.
  const auto points = static_cast<double>(points_.size());
  for (double radius = cell_size_m();; radius *= 2.0) {
    const double side = 2.0 * radius / cell_size_m() + 2.0;
    if (side * side > points) break;
    for_each_within(center, radius, consider);
    if (best_d2 <= radius * radius * (1.0 - 1e-9)) return best;
  }
  for (std::size_t i = 0; i < points_.size(); ++i) consider(i);
  return best;
}

}  // namespace waldo::geo
