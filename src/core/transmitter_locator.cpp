#include "waldo/core/transmitter_locator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace waldo::core {

namespace {

/// Search margin beyond the readings' bounding box, meters (transmitters
/// usually sit outside the drive area).
constexpr double kSearchMarginM = 40'000.0;
/// Coarse grid pitch; each refinement halves it.
constexpr double kCoarseStepM = 4'000.0;
constexpr std::size_t kRefinementRounds = 5;
/// Minimum usable readings for a fit.
constexpr std::size_t kMinReadings = 20;
/// Robustness: after each trim round the worst-residual share of readings
/// is dropped and the search repeats. Obstruction pockets put large,
/// distance-uncorrelated negative outliers in the data; trimming keeps
/// them from flattening the fitted slope.
constexpr double kTrimFraction = 0.2;
constexpr std::size_t kTrimRounds = 2;

struct Fit {
  double intercept = 0.0;
  double exponent = 0.0;
  double sse = std::numeric_limits<double>::infinity();
};

/// Closed-form least squares of rss = intercept - 10 n log10(d_km) for a
/// candidate transmitter position.
[[nodiscard]] Fit fit_candidate(const geo::EnuPoint& candidate,
                                std::span<const geo::EnuPoint> positions,
                                std::span<const double> rss) {
  const std::size_t n = positions.size();
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d_km =
        std::max(50.0, geo::distance_m(positions[i], candidate)) / 1000.0;
    xs[i] = std::log10(d_km);
    sx += xs[i];
    sy += rss[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * rss[i];
  }
  const auto dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  Fit fit;
  if (std::abs(denom) < 1e-9) return fit;  // degenerate geometry
  const double slope = (dn * sxy - sx * sy) / denom;
  fit.intercept = (sy - slope * sx) / dn;
  fit.exponent = -slope / 10.0;
  if (fit.exponent <= 0.5) return fit;  // physically implausible: reject
  fit.sse = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = rss[i] - (fit.intercept + slope * xs[i]);
    fit.sse += e * e;
  }
  return fit;
}

}  // namespace

namespace {

struct SearchResult {
  geo::EnuPoint position;
  Fit fit;
};

/// One full coarse-to-fine search over the given readings.
[[nodiscard]] SearchResult grid_search(std::span<const geo::EnuPoint> positions,
                                       std::span<const double> rss) {
  geo::BoundingBox box = geo::BoundingBox::of(positions);
  box.min_east_m -= kSearchMarginM;
  box.min_north_m -= kSearchMarginM;
  box.max_east_m += kSearchMarginM;
  box.max_north_m += kSearchMarginM;

  geo::EnuPoint best{(box.min_east_m + box.max_east_m) / 2.0,
                     (box.min_north_m + box.max_north_m) / 2.0};
  Fit best_fit;
  double step = kCoarseStepM;

  // Round 0 scans the whole expanded box; refinements scan a shrinking
  // neighbourhood of the incumbent best at half the pitch.
  double east_lo = box.min_east_m, east_hi = box.max_east_m;
  double north_lo = box.min_north_m, north_hi = box.max_north_m;
  for (std::size_t round = 0; round <= kRefinementRounds; ++round) {
    for (double e = east_lo; e <= east_hi; e += step) {
      for (double n = north_lo; n <= north_hi; n += step) {
        const Fit fit = fit_candidate(geo::EnuPoint{e, n}, positions, rss);
        if (fit.sse < best_fit.sse) {
          best_fit = fit;
          best = geo::EnuPoint{e, n};
        }
      }
    }
    east_lo = best.east_m - 2.0 * step;
    east_hi = best.east_m + 2.0 * step;
    north_lo = best.north_m - 2.0 * step;
    north_hi = best.north_m + 2.0 * step;
    step /= 2.0;
  }

  return SearchResult{.position = best, .fit = best_fit};
}

}  // namespace

std::optional<TransmitterEstimate> locate_transmitter(
    const campaign::ChannelDataset& data, const LocatorConfig& config) {
  std::vector<geo::EnuPoint> positions;
  std::vector<double> rss;
  for (const campaign::Measurement& m : data.readings) {
    if (m.rss_dbm >= config.min_rss_dbm) {
      positions.push_back(m.position);
      rss.push_back(m.rss_dbm);
    }
  }
  if (positions.size() < kMinReadings) return std::nullopt;

  SearchResult result = grid_search(positions, rss);
  if (!std::isfinite(result.fit.sse)) return std::nullopt;

  // Candidate solutions are scored by the median absolute residual over
  // the ORIGINAL reading set: robust to outliers, yet immune to the
  // trivial SSE shrinkage of fitting fewer points.
  const std::vector<geo::EnuPoint> all_positions = positions;
  const std::vector<double> all_rss = rss;
  const auto median_residual = [&](const SearchResult& sr) {
    std::vector<double> res(all_positions.size());
    for (std::size_t i = 0; i < all_positions.size(); ++i) {
      const double d_km =
          std::max(50.0, geo::distance_m(all_positions[i], sr.position)) /
          1000.0;
      const double predicted =
          sr.fit.intercept - 10.0 * sr.fit.exponent * std::log10(d_km);
      res[i] = std::abs(all_rss[i] - predicted);
    }
    std::nth_element(res.begin(), res.begin() + static_cast<std::ptrdiff_t>(
                                      res.size() / 2),
                     res.end());
    return res[res.size() / 2];
  };
  double best_score = median_residual(result);

  // Robust re-fit: drop the worst residuals (obstruction-pocket outliers)
  // and search again.
  for (std::size_t round = 0; round < kTrimRounds; ++round) {
    const std::size_t keep = static_cast<std::size_t>(
        (1.0 - kTrimFraction) * static_cast<double>(positions.size()));
    if (keep < kMinReadings) break;
    std::vector<std::size_t> order(positions.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const auto residual = [&](std::size_t i) {
      const double d_km =
          std::max(50.0, geo::distance_m(positions[i], result.position)) /
          1000.0;
      const double predicted =
          result.fit.intercept -
          10.0 * result.fit.exponent * std::log10(d_km);
      return std::abs(rss[i] - predicted);
    };
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return residual(a) < residual(b);
    });
    std::vector<geo::EnuPoint> kept_pos;
    std::vector<double> kept_rss;
    kept_pos.reserve(keep);
    kept_rss.reserve(keep);
    for (std::size_t k = 0; k < keep; ++k) {
      kept_pos.push_back(positions[order[k]]);
      kept_rss.push_back(rss[order[k]]);
    }
    positions = std::move(kept_pos);
    rss = std::move(kept_rss);
    const SearchResult refined = grid_search(positions, rss);
    if (std::isfinite(refined.fit.sse)) {
      const double score = median_residual(refined);
      if (score < best_score) {
        best_score = score;
        result = refined;
      }
    }
  }

  return TransmitterEstimate{
      .position = result.position,
      .path_loss_exponent = result.fit.exponent,
      .intercept_dbm = result.fit.intercept,
      .rmse_db = std::sqrt(result.fit.sse /
                           static_cast<double>(positions.size())),
      .readings_used = positions.size()};
}

}  // namespace waldo::core
