// The conventional spectrum database (Google/SpectrumBridge family): takes
// the public transmitter registrations, draws each station's protected
// contour with a generic FCC-curve propagation model, adds the portable-WSD
// separation distance, and declares everything inside not safe. No local
// knowledge — which is exactly why it overprotects (Fig. 4).
#pragma once

#include <vector>

#include "waldo/geo/latlon.hpp"
#include "waldo/rf/environment.hpp"

namespace waldo::baselines {

struct GeoDatabaseConfig {
  /// Extra margin the database model applies on top of the median curve to
  /// guarantee safety against fading (certified databases protect the
  /// F(50,90) quantile, not the median).
  double fading_margin_db = 3.0;
};

class GeoDatabase {
 public:
  /// Builds contours for every transmitter registered in the environment.
  /// Only public registration data (location, ERP, height, channel) is
  /// used — never the environment's shadowing or obstacles.
  GeoDatabase(const rf::Environment& environment, int channel,
              GeoDatabaseConfig config = {});

  [[nodiscard]] int classify(const geo::EnuPoint& p) const;

  /// Protected-contour radius (before separation) of transmitter `i` on
  /// this database's channel.
  [[nodiscard]] double contour_radius_m(std::size_t i) const;
  [[nodiscard]] std::size_t num_contours() const noexcept {
    return contours_.size();
  }

 private:
  struct Contour {
    geo::EnuPoint center;
    double radius_m = 0.0;  ///< protected contour + separation
    double raw_radius_m = 0.0;
  };
  std::vector<Contour> contours_;
};

}  // namespace waldo::baselines
