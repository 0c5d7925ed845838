#include "waldo/baselines/vscope.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "waldo/ml/kmeans.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/channels.hpp"

namespace waldo::baselines {

namespace {

/// Protection margin subtracted from the threshold when classifying: the
/// fitted median field smooths away shadowing/obstruction scatter, so a
/// deployment must pad its predictions to stay safe. Trades FP for FN.
constexpr double kProtectionMarginDb = 4.0;
/// Seed of the k-means that splits the readings into clusters.
constexpr std::uint64_t kClusterSeed = 31;

struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  std::size_t n = 0;
};

/// OLS of y on x.
[[nodiscard]] LinearFit regress(std::span<const double> x,
                                std::span<const double> y) {
  LinearFit f;
  f.n = x.size();
  if (f.n < 2) return f;
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < f.n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const auto dn = static_cast<double>(f.n);
  const double denom = dn * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) {
    f.intercept = sy / dn;
    return f;
  }
  f.slope = (dn * sxy - sx * sy) / denom;
  f.intercept = (sy - f.slope * sx) / dn;
  return f;
}

}  // namespace

double VScope::nearest_tx_distance_m(const geo::EnuPoint& p) const {
  double best = std::numeric_limits<double>::infinity();
  for (const geo::EnuPoint& tx : transmitters_) {
    best = std::min(best, geo::distance_m(p, tx));
  }
  return best;
}

void VScope::fit(const campaign::ChannelDataset& data,
                 std::span<const geo::EnuPoint> transmitters) {
  if (data.readings.empty()) {
    throw std::invalid_argument("vscope: empty training data");
  }
  if (transmitters.empty()) {
    throw std::invalid_argument(
        "vscope: needs registered transmitter locations");
  }
  transmitters_.assign(transmitters.begin(), transmitters.end());

  static_assert(offsetof(geo::EnuPoint, north_m) == sizeof(double));
  ml::KMeansConfig kmc;
  kmc.k = std::max<std::size_t>(1, config_.num_clusters);
  kmc.seed = kClusterSeed;
  ml::KMeansScratch scratch;
  ml::KMeansResult clusters;
  ml::kmeans_into(ml::PlanePoints{&data.readings[0].position.east_m,
                                  data.readings.size(),
                                  sizeof(campaign::Measurement)},
                  kmc, scratch, clusters);

  // Global fallback fit over everything (used for tiny clusters).
  std::vector<double> all_x, all_y;
  all_x.reserve(data.readings.size());
  for (const campaign::Measurement& m : data.readings) {
    const double d_km =
        std::max(10.0, nearest_tx_distance_m(m.position)) / 1000.0;
    all_x.push_back(std::log10(d_km));
    all_y.push_back(m.rss_dbm);
  }
  const LinearFit global = regress(all_x, all_y);

  fits_.clear();
  for (std::size_t c = 0; c < clusters.centroids.rows(); ++c) {
    std::vector<double> x, y;
    for (std::size_t i = 0; i < data.readings.size(); ++i) {
      if (clusters.assignment[i] != c) continue;
      x.push_back(all_x[i]);
      y.push_back(all_y[i]);
    }
    LinearFit lf = x.size() >= 8 ? regress(x, y) : global;
    ClusterFit cf;
    cf.centroid = geo::EnuPoint{clusters.centroids(c, 0),
                                clusters.centroids(c, 1)};
    cf.intercept_dbm = lf.intercept;
    // rss = intercept + slope * log10(d_km); slope = -10 n.
    cf.exponent = -lf.slope / 10.0;
    cf.samples = x.size();
    fits_.push_back(cf);
  }
}

std::size_t VScope::cluster_of(const geo::EnuPoint& p) const {
  if (fits_.empty()) throw std::logic_error("vscope: not fitted");
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < fits_.size(); ++c) {
    const double d = geo::distance_m(p, fits_[c].centroid);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

double VScope::predict_rss_dbm(const geo::EnuPoint& p) const {
  const ClusterFit& cf = fits_[cluster_of(p)];
  const double d_km = std::max(10.0, nearest_tx_distance_m(p)) / 1000.0;
  return cf.intercept_dbm - 10.0 * cf.exponent * std::log10(d_km);
}

int VScope::classify(const geo::EnuPoint& p) const {
  const ClusterFit& cf = fits_[cluster_of(p)];
  const double d_m = std::max(10.0, nearest_tx_distance_m(p));
  const double rss = predict_rss_dbm(p);
  const double guarded_threshold =
      rf::kDecodableThresholdDbm - kProtectionMarginDb;
  if (rss >= guarded_threshold) return ml::kNotSafe;
  if (cf.exponent > 0.0) {
    // Monotone fitted field: apply the separation distance through the
    // fitted contour radius.
    const double contour_km = std::pow(
        10.0, (cf.intercept_dbm - guarded_threshold) /
                  (10.0 * cf.exponent));
    if (d_m < contour_km * 1000.0 + rf::kSeparationDistanceM) {
      return ml::kNotSafe;
    }
  }
  return ml::kSafe;
}

}  // namespace waldo::baselines
