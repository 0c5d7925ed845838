// Campaign-independent regulatory ground truth. Algorithm 1 labels depend
// on which points a drive happened to sample; for validating detection
// systems (Fig. 4's "spectrum analyzer ground truth" role) we also need the
// label field itself: a location is truly not safe iff the TV signal is
// decodable anywhere within the separation distance. Computed once per
// channel by thresholding the environment's true RSS on a fine grid and
// dilating by the separation radius.
#pragma once

#include <memory>
#include <vector>

#include "waldo/campaign/labeling.hpp"
#include "waldo/rf/environment.hpp"

namespace waldo::campaign {

class GroundTruthLabeler {
 public:
  /// Builds the truth map for one channel. `grid_m` is the sampling pitch
  /// of the decodability field (keep well under the separation distance).
  /// RSS is evaluated at the campaign receiver height plus
  /// `config.correction_db`, mirroring how measured labels are produced.
  GroundTruthLabeler(const rf::Environment& environment, int channel,
                     const LabelingConfig& config = {}, double grid_m = 250.0);

  /// kSafe / kNotSafe at an arbitrary location (nearest grid cell).
  [[nodiscard]] int label(const geo::EnuPoint& p) const noexcept;

  /// Fraction of the region's grid cells that are safe.
  [[nodiscard]] double safe_area_fraction() const noexcept;

  [[nodiscard]] int channel() const noexcept { return channel_; }

 private:
  [[nodiscard]] std::size_t cell_index(std::size_t ix,
                                       std::size_t iy) const noexcept {
    return iy * nx_ + ix;
  }

  int channel_ = 0;
  geo::BoundingBox region_;
  double grid_m_ = 250.0;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<int> labels_;  // grid of kSafe / kNotSafe
};

}  // namespace waldo::campaign
