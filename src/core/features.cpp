#include "waldo/core/features.hpp"

#include <stdexcept>

#include "waldo/dsp/detectors.hpp"

namespace waldo::core {

namespace {

void check_feature_count(int num_features) {
  if (num_features < kMinFeatures || num_features > kMaxFeatures) {
    throw std::invalid_argument("feature count must be in [1, 4]");
  }
}

}  // namespace

std::vector<double> feature_row(const geo::EnuPoint& position, double rss_dbm,
                                double cft_db, double aft_db,
                                int num_features) {
  check_feature_count(num_features);
  std::vector<double> row;
  row.reserve(feature_columns(num_features));
  row.push_back(position.east_m);
  row.push_back(position.north_m);
  if (num_features >= 2) row.push_back(rss_dbm);
  if (num_features >= 3) row.push_back(cft_db);
  if (num_features >= 4) row.push_back(aft_db);
  return row;
}

TrainingColumns training_columns(const campaign::ChannelDataset& data,
                                 int num_features) {
  check_feature_count(num_features);
  TrainingColumns out;
  out.channel = data.channel;
  const std::size_t n = data.readings.size();
  out.positions.resize(n);
  out.rss_dbm.resize(n);
  if (num_features >= 3) out.cft_db.resize(n);
  if (num_features >= 4) out.aft_db.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const campaign::Measurement& m = data.readings[i];
    out.positions[i] = m.position;
    out.rss_dbm[i] = m.rss_dbm;
    if (num_features >= 3) out.cft_db[i] = m.cft_db;
    if (num_features >= 4) out.aft_db[i] = m.aft_db;
  }
  return out;
}

ml::Matrix build_features(const TrainingColumns& data, int num_features) {
  ml::Matrix x;
  build_features_into(data, num_features, x);
  return x;
}

void build_features_into(const TrainingColumns& data, int num_features,
                         ml::Matrix& x) {
  check_feature_count(num_features);
  const std::size_t n = data.size();
  if (data.rss_dbm.size() != n ||
      (num_features >= 3 && data.cft_db.size() != n) ||
      (num_features >= 4 && data.aft_db.size() != n)) {
    throw std::invalid_argument("training columns of unequal length");
  }
  x.reshape(n, feature_columns(num_features));
  for (std::size_t i = 0; i < n; ++i) {
    double* row = x.row_ptr(i);
    row[0] = data.positions[i].east_m;
    row[1] = data.positions[i].north_m;
    if (num_features >= 2) row[2] = data.rss_dbm[i];
    if (num_features >= 3) row[3] = data.cft_db[i];
    if (num_features >= 4) row[4] = data.aft_db[i];
  }
}

ml::Matrix build_features(const campaign::ChannelDataset& data,
                          int num_features) {
  return build_features(training_columns(data, num_features), num_features);
}

SpectralFeatures extract_spectral_features(
    std::span<const dsp::cplx> capture) {
  dsp::CaptureWorkspace ws;
  return extract_spectral_features(capture, ws);
}

SpectralFeatures extract_spectral_features(std::span<const dsp::cplx> capture,
                                           dsp::CaptureWorkspace& ws) {
  const auto ps = dsp::power_spectrum_shifted_into(capture, ws);
  return SpectralFeatures{.cft_db = dsp::central_bin_db_from_power(ps),
                          .aft_db = dsp::central_band_mean_db_from_power(ps)};
}

const char* feature_name(int index) {
  switch (index) {
    case 1:
      return "location";
    case 2:
      return "RSS";
    case 3:
      return "CFT";
    case 4:
      return "AFT";
    default:
      throw std::invalid_argument("feature index must be in [1, 4]");
  }
}

}  // namespace waldo::core
