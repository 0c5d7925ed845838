#include "waldo/baselines/geo_database.hpp"

#include <stdexcept>

#include "waldo/ml/metrics.hpp"
#include "waldo/rf/channels.hpp"
#include "waldo/rf/path_loss.hpp"

namespace waldo::baselines {

namespace {

/// How far the generic open-terrain curves under-predict loss in metro
/// clutter (passed to rf::FccCurvesModel). Together with the fading margin
/// and the 10 m regulatory receiver height this sets the database's
/// overprotection factor.
constexpr double kCurveUnderpredictionDb = 1.0;

/// Largest distance at which `model` predicts at least `threshold_dbm`
/// from a transmitter with `erp_dbm`, found by bisection (path loss is
/// monotone in distance).
[[nodiscard]] double solve_contour_radius_m(const rf::FccCurvesModel& model,
                                            double erp_dbm,
                                            double threshold_dbm) {
  const auto rss_at = [&](double d) { return erp_dbm - model.path_loss_db(d); };
  double lo = 10.0;
  double hi = 500'000.0;
  if (rss_at(lo) < threshold_dbm) return 0.0;      // never above threshold
  if (rss_at(hi) >= threshold_dbm) return hi;      // blankets everything
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (rss_at(mid) >= threshold_dbm) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

}  // namespace

GeoDatabase::GeoDatabase(const rf::Environment& environment, int channel,
                         GeoDatabaseConfig config) {
  for (const rf::Transmitter& tx : environment.transmitters()) {
    if (tx.channel != channel) continue;
    const rf::FccCurvesModel curves(rf::channel_center_hz(channel),
                                    tx.height_m,
                                    kCurveUnderpredictionDb);
    // Protect where the pessimistic (margin-added) prediction still
    // reaches the decodability threshold.
    const double radius = solve_contour_radius_m(
        curves, tx.erp_dbm + config.fading_margin_db,
        rf::kDecodableThresholdDbm);
    if (radius <= 0.0) continue;
    contours_.push_back(Contour{.center = tx.location,
                                .radius_m = radius + rf::kSeparationDistanceM,
                                .raw_radius_m = radius});
  }
}

int GeoDatabase::classify(const geo::EnuPoint& p) const {
  for (const Contour& c : contours_) {
    if (geo::distance_m(p, c.center) <= c.radius_m) return ml::kNotSafe;
  }
  return ml::kSafe;
}

double GeoDatabase::contour_radius_m(std::size_t i) const {
  if (i >= contours_.size()) throw std::out_of_range("contour index");
  return contours_[i].raw_radius_m;
}

}  // namespace waldo::baselines
