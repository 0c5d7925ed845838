#include "waldo/rf/path_loss.hpp"

#include <algorithm>
#include <cmath>

namespace waldo::rf {

namespace {
constexpr double kMinDistanceM = 10.0;  // below this all models saturate
[[nodiscard]] double log10_clamped(double v) {
  return std::log10(std::max(v, 1e-12));
}
}  // namespace

HataUrbanModel::HataUrbanModel(double frequency_hz, double tx_height_m,
                               double rx_height_m) noexcept
    : freq_mhz_(std::clamp(frequency_hz / 1e6, 150.0, 1500.0)),
      tx_height_m_(std::clamp(tx_height_m, 30.0, 200.0)),
      rx_height_m_(std::clamp(rx_height_m, 1.0, 10.0)) {
  const double lf = log10_clamped(freq_mhz_);
  const double lhb = log10_clamped(tx_height_m_);
  fixed_db_ =
      69.55 + 26.16 * lf - 13.82 * lhb - antenna_correction_db(rx_height_m_);
  slope_ = 44.9 - 6.55 * lhb;
}

double HataUrbanModel::antenna_correction_db(double rx_height_m) {
  const double t = log10_clamped(11.5 * rx_height_m);
  return 3.2 * t * t - 4.97;
}

double HataUrbanModel::path_loss_db(double distance_m) const {
  const double d_km = std::max(distance_m, kMinDistanceM) / 1000.0;
  return fixed_db_ + slope_ * log10_clamped(d_km);
}

FccCurvesModel::FccCurvesModel(double frequency_hz, double tx_height_m,
                               double clutter_underprediction_db) noexcept
    : hata_(frequency_hz, tx_height_m, /*rx_height_m=*/10.0),
      clutter_underprediction_db_(clutter_underprediction_db) {}

double FccCurvesModel::path_loss_db(double distance_m) const {
  return hata_.path_loss_db(distance_m) - clutter_underprediction_db_;
}

}  // namespace waldo::rf
