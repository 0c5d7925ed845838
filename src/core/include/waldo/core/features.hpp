// Feature construction (Section 3.2). A conventional spectrum database
// classifies on location alone; Waldo appends signal features extracted
// from the 256-sample capture, in the paper's fixed order:
//   1 feature  : location (east, north — counts as one feature)
//   2 features : + RSS  (calibrated channel-power estimate)
//   3 features : + CFT  (central DFT bin power)
//   4 features : + AFT  (mean power of the central 15 % of DFT bins)
#pragma once

#include <span>
#include <vector>

#include "waldo/campaign/measurement.hpp"
#include "waldo/dsp/fft.hpp"
#include "waldo/dsp/iq.hpp"
#include "waldo/ml/matrix.hpp"

namespace waldo::core {

inline constexpr int kMinFeatures = 1;
inline constexpr int kMaxFeatures = 4;

/// Number of matrix columns a feature count expands to (location is two
/// coordinates).
[[nodiscard]] constexpr std::size_t feature_columns(int num_features) {
  return 1 + static_cast<std::size_t>(num_features);
}

/// One feature row from measurement ingredients.
[[nodiscard]] std::vector<double> feature_row(const geo::EnuPoint& position,
                                              double rss_dbm, double cft_db,
                                              double aft_db,
                                              int num_features);

/// The columns of a channel dataset that labeling and model training read:
/// positions and RSS always, CFT only from 3 features and AFT only from 4.
/// A serving rebuild copies them out of core::ChannelState, which stores
/// all four (40 B a reading).
struct TrainingColumns {
  int channel = 0;
  std::vector<geo::EnuPoint> positions;
  std::vector<double> rss_dbm;
  std::vector<double> cft_db;  ///< empty when num_features < 3
  std::vector<double> aft_db;  ///< empty when num_features < 4

  [[nodiscard]] std::size_t size() const noexcept { return positions.size(); }
};

/// Copies the columns a `num_features` model needs out of `data`. Throws
/// std::invalid_argument unless num_features is in [1, 4].
[[nodiscard]] TrainingColumns training_columns(
    const campaign::ChannelDataset& data, int num_features);

/// Throws std::invalid_argument unless num_features is in [1, 4] and every
/// column a `num_features` row reads is as long as `positions`.
void check_training_columns(const TrainingColumns& data, int num_features);

/// Writes reading i's feature row, feature_columns(num_features) values in
/// feature_row's order, to `row`. Unchecked: check_training_columns first.
inline void write_feature_row(const TrainingColumns& data, std::size_t i,
                              int num_features, double* row) noexcept {
  row[0] = data.positions[i].east_m;
  row[1] = data.positions[i].north_m;
  if (num_features >= 2) row[2] = data.rss_dbm[i];
  if (num_features >= 3) row[3] = data.cft_db[i];
  if (num_features >= 4) row[4] = data.aft_db[i];
}

/// Feature matrix over a whole dataset, one feature_row per reading.
[[nodiscard]] ml::Matrix build_features(const campaign::ChannelDataset& data,
                                        int num_features);

/// Extracts the (RSS-excluded) spectral features from a live capture: CFT
/// and AFT, in that order, read from one power spectrum. RSS comes from
/// the calibrated raw reading, not the capture.
struct SpectralFeatures {
  double cft_db = 0.0;
  double aft_db = 0.0;
};
/// Through a fresh workspace; bit-identical to the workspace form.
[[nodiscard]] SpectralFeatures extract_spectral_features(
    std::span<const dsp::cplx> capture);

/// Workspace form, reusing `ws`'s scratch buffers (allocation-free once
/// warm).
[[nodiscard]] SpectralFeatures extract_spectral_features(
    std::span<const dsp::cplx> capture, dsp::CaptureWorkspace& ws);

/// Human-readable name of the n-th feature (1-based, matching the paper's
/// "number of features" axis).
[[nodiscard]] const char* feature_name(int index);

}  // namespace waldo::core
