#include "waldo/campaign/truth.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "waldo/ml/metrics.hpp"

namespace waldo::campaign {

GroundTruthLabeler::GroundTruthLabeler(const rf::Environment& environment,
                                       int channel,
                                       const LabelingConfig& config,
                                       double grid_m)
    : channel_(channel), grid_m_(grid_m) {
  if (grid_m <= 0.0 || grid_m > config.separation_m / 2.0) {
    throw std::invalid_argument(
        "truth grid pitch must be positive and well under the separation "
        "distance");
  }
  // The decodability field must extend one separation radius beyond the
  // region so dilation at the edges is correct.
  const geo::BoundingBox& r = environment.config().region;
  region_ = geo::BoundingBox{r.min_east_m - config.separation_m,
                             r.min_north_m - config.separation_m,
                             r.max_east_m + config.separation_m,
                             r.max_north_m + config.separation_m};
  nx_ = static_cast<std::size_t>(region_.width_m() / grid_m_) + 2;
  ny_ = static_cast<std::size_t>(region_.height_m() / grid_m_) + 2;

  std::vector<char> decodable(nx_ * ny_, 0);
  for (std::size_t iy = 0; iy < ny_; ++iy) {
    for (std::size_t ix = 0; ix < nx_; ++ix) {
      const geo::EnuPoint p{
          region_.min_east_m + static_cast<double>(ix) * grid_m_,
          region_.min_north_m + static_cast<double>(iy) * grid_m_};
      const double rss =
          environment.true_rss_dbm(channel, p) + config.correction_db;
      decodable[cell_index(ix, iy)] = rss > config.threshold_dbm ? 1 : 0;
    }
  }

  // Dilate the decodable set by the separation radius: a cell is not safe
  // if any decodable cell lies within it. Precompute the disk offsets.
  const auto radius_cells =
      static_cast<std::ptrdiff_t>(std::ceil(config.separation_m / grid_m_));
  std::vector<std::pair<std::ptrdiff_t, std::ptrdiff_t>> disk;
  const double r2 = (config.separation_m / grid_m_) *
                    (config.separation_m / grid_m_);
  for (std::ptrdiff_t dy = -radius_cells; dy <= radius_cells; ++dy) {
    for (std::ptrdiff_t dx = -radius_cells; dx <= radius_cells; ++dx) {
      if (static_cast<double>(dx * dx + dy * dy) <= r2) disk.emplace_back(dx, dy);
    }
  }

  labels_.assign(nx_ * ny_, ml::kSafe);
  for (std::size_t iy = 0; iy < ny_; ++iy) {
    for (std::size_t ix = 0; ix < nx_; ++ix) {
      if (!decodable[cell_index(ix, iy)]) continue;
      for (const auto& [dx, dy] : disk) {
        const auto jx = static_cast<std::ptrdiff_t>(ix) + dx;
        const auto jy = static_cast<std::ptrdiff_t>(iy) + dy;
        if (jx < 0 || jy < 0 || jx >= static_cast<std::ptrdiff_t>(nx_) ||
            jy >= static_cast<std::ptrdiff_t>(ny_)) {
          continue;
        }
        labels_[cell_index(static_cast<std::size_t>(jx),
                           static_cast<std::size_t>(jy))] = ml::kNotSafe;
      }
    }
  }
}

int GroundTruthLabeler::label(const geo::EnuPoint& p) const noexcept {
  const double fx = (p.east_m - region_.min_east_m) / grid_m_;
  const double fy = (p.north_m - region_.min_north_m) / grid_m_;
  const auto ix = static_cast<std::size_t>(std::clamp(
      fx, 0.0, static_cast<double>(nx_ - 1)));
  const auto iy = static_cast<std::size_t>(std::clamp(
      fy, 0.0, static_cast<double>(ny_ - 1)));
  return labels_[cell_index(ix, iy)];
}

double GroundTruthLabeler::safe_area_fraction() const noexcept {
  if (labels_.empty()) return 0.0;
  std::size_t safe = 0;
  for (const int l : labels_) safe += l == ml::kSafe ? 1 : 0;
  return static_cast<double>(safe) / static_cast<double>(labels_.size());
}

}  // namespace waldo::campaign
