// Geographic primitives: WGS-84 coordinates, great-circle distance, and a
// local tangent-plane (ENU) projection good to metro scale (< 50 km).
#pragma once

#include <cmath>
#include <numbers>

namespace waldo::geo {

/// Mean Earth radius in meters (IUGG).
inline constexpr double kEarthRadiusM = 6371008.8;

[[nodiscard]] constexpr double deg_to_rad(double deg) noexcept {
  return deg * std::numbers::pi / 180.0;
}

[[nodiscard]] constexpr double rad_to_deg(double rad) noexcept {
  return rad * 180.0 / std::numbers::pi;
}

/// A WGS-84 geographic coordinate in decimal degrees.
struct LatLon {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  friend bool operator==(const LatLon&, const LatLon&) = default;
};

/// A point in a local east-north plane, meters relative to a projection
/// origin.
struct EnuPoint {
  double east_m = 0.0;
  double north_m = 0.0;

  friend bool operator==(const EnuPoint&, const EnuPoint&) = default;
};

/// Euclidean distance between two ENU points in meters.
[[nodiscard]] inline double distance_m(const EnuPoint& a,
                                       const EnuPoint& b) noexcept {
  return std::hypot(a.east_m - b.east_m, a.north_m - b.north_m);
}

/// Equirectangular projection around a fixed origin. Distortion at 25 km
/// from the origin is below 0.1 % at mid latitudes, far below the shadowing
/// decorrelation scale this library cares about.
class LocalProjection {
 public:
  explicit LocalProjection(const LatLon& origin) noexcept
      : origin_(origin), cos_lat0_(std::cos(deg_to_rad(origin.lat_deg))) {}

  [[nodiscard]] const LatLon& origin() const noexcept { return origin_; }

  [[nodiscard]] EnuPoint to_enu(const LatLon& p) const noexcept {
    return EnuPoint{
        .east_m = kEarthRadiusM * cos_lat0_ *
                  deg_to_rad(p.lon_deg - origin_.lon_deg),
        .north_m = kEarthRadiusM * deg_to_rad(p.lat_deg - origin_.lat_deg)};
  }

  [[nodiscard]] LatLon to_latlon(const EnuPoint& p) const noexcept {
    return LatLon{
        .lat_deg = origin_.lat_deg + rad_to_deg(p.north_m / kEarthRadiusM),
        .lon_deg = origin_.lon_deg +
                   rad_to_deg(p.east_m / (kEarthRadiusM * cos_lat0_))};
  }

 private:
  LatLon origin_;
  double cos_lat0_;
};

/// Axis-aligned bounding box in the local ENU plane.
struct BoundingBox {
  double min_east_m = 0.0;
  double min_north_m = 0.0;
  double max_east_m = 0.0;
  double max_north_m = 0.0;

  [[nodiscard]] double width_m() const noexcept {
    return max_east_m - min_east_m;
  }
  [[nodiscard]] double height_m() const noexcept {
    return max_north_m - min_north_m;
  }
  [[nodiscard]] double area_km2() const noexcept {
    return width_m() * height_m() / 1e6;
  }
  [[nodiscard]] bool contains(const EnuPoint& p) const noexcept {
    return p.east_m >= min_east_m && p.east_m <= max_east_m &&
           p.north_m >= min_north_m && p.north_m <= max_north_m;
  }
  /// Grows the box so that `p` is inside it.
  void expand(const EnuPoint& p) noexcept;
  /// Smallest box containing a range of points.
  template <typename Range>
  [[nodiscard]] static BoundingBox of(const Range& points) {
    BoundingBox box{1e18, 1e18, -1e18, -1e18};
    for (const EnuPoint& p : points) box.expand(p);
    return box;
  }
};

}  // namespace waldo::geo
