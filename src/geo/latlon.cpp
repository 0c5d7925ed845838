#include "waldo/geo/latlon.hpp"

#include <algorithm>

namespace waldo::geo {

void BoundingBox::expand(const EnuPoint& p) noexcept {
  min_east_m = std::min(min_east_m, p.east_m);
  min_north_m = std::min(min_north_m, p.north_m);
  max_east_m = std::max(max_east_m, p.east_m);
  max_north_m = std::max(max_north_m, p.north_m);
}

}  // namespace waldo::geo
