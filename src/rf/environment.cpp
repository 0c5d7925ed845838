#include "waldo/rf/environment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "waldo/rf/units.hpp"

namespace waldo::rf {

Environment::Environment(EnvironmentConfig config,
                         std::vector<Transmitter> transmitters)
    : Environment(config, std::move(transmitters),
                  ObstacleField::random(
                      config.region, config.obstacle_count,
                      config.obstacle_min_radius_m,
                      config.obstacle_max_radius_m,
                      config.obstacle_min_atten_db,
                      config.obstacle_max_atten_db, config.seed + 1000)) {}

Environment::Environment(EnvironmentConfig config,
                         std::vector<Transmitter> transmitters,
                         ObstacleField obstacles)
    : config_(std::move(config)),
      transmitters_(std::move(transmitters)),
      obstacles_(std::move(obstacles)) {
  for (const Transmitter& tx : transmitters_) {
    if (!is_valid_channel(tx.channel)) {
      throw std::invalid_argument("transmitter on invalid TV channel");
    }
  }
  shadowing_.reserve(transmitters_.size());
  for (std::size_t i = 0; i < transmitters_.size(); ++i) {
    shadowing_.emplace_back(config_.region, config_.shadowing_cell_m,
                            config_.shadowing_sigma_db,
                            config_.shadowing_decorrelation_m,
                            config_.seed + 1 + i);
  }
  build_propagation_index();
}

void Environment::build_propagation_index() {
  by_channel_.clear();
  hata_rx_.clear();
  hata_ref_.clear();
  hata_rx_.reserve(transmitters_.size());
  hata_ref_.reserve(transmitters_.size());
  for (std::size_t i = 0; i < transmitters_.size(); ++i) {
    const Transmitter& tx = transmitters_[i];
    ChannelTransmitters& entry = by_channel_[tx.channel];
    entry.indices.push_back(i);
    entry.pointers.push_back(&tx);
    const double freq_hz = channel_center_hz(tx.channel);
    hata_rx_.emplace_back(freq_hz, tx.height_m, kCampaignRxHeightM);
    hata_ref_.emplace_back(freq_hz, tx.height_m, kReferenceRxHeightM);
  }
}

Environment::Environment(const Environment& other)
    : config_(other.config_),
      transmitters_(other.transmitters_),
      obstacles_(other.obstacles_),
      shadowing_(other.shadowing_),
      floor_dbm_(other.floor_dbm_) {
  build_propagation_index();
}

Environment::Environment(Environment&& other) noexcept
    : config_(std::move(other.config_)),
      transmitters_(std::move(other.transmitters_)),
      obstacles_(std::move(other.obstacles_)),
      shadowing_(std::move(other.shadowing_)),
      floor_dbm_(other.floor_dbm_) {
  // Moving the transmitter vector transfers its heap storage, but rebuild
  // anyway: it is cheap and keeps the invariant independent of vector
  // implementation details.
  build_propagation_index();
}

Environment seasonal_variant(const Environment& base,
                             const SeasonalDrift& drift) {
  EnvironmentConfig config = base.config();
  config.seed += drift.shadowing_reseed;  // fresh small-scale fading
  std::vector<Obstacle> obstacles = base.obstacles().obstacles();
  for (Obstacle& o : obstacles) o.attenuation_db += drift.foliage_extra_db;
  return Environment(config, base.transmitters(),
                     ObstacleField(std::move(obstacles)));
}

const std::vector<const Transmitter*>& Environment::transmitters_on(
    int channel) const {
  static const std::vector<const Transmitter*> kNone;
  const auto it = by_channel_.find(channel);
  return it == by_channel_.end() ? kNone : it->second.pointers;
}

double Environment::true_rss_dbm(int channel, const geo::EnuPoint& p) const {
  return rss_dbm(channel, p, hata_rx_);
}

double Environment::rss_dbm(int channel, const geo::EnuPoint& p,
                            const std::vector<HataUrbanModel>& hata) const {
  const auto it = by_channel_.find(channel);
  if (it == by_channel_.end()) return floor_dbm_;
  double total_mw = 0.0;
  const double obstruction_db = obstacles_.attenuation_db(p);
  // Ascending transmitter order: the same FP sum order as the original
  // linear scan over all transmitters.
  for (const std::size_t i : it->second.indices) {
    const Transmitter& tx = transmitters_[i];
    const double d = geo::distance_m(p, tx.location);
    const double rss = tx.erp_dbm - hata[i].path_loss_db(d) -
                       shadowing_[i].sample_db(p) - obstruction_db;
    total_mw += dbm_to_mw(rss);
  }
  if (total_mw <= 0.0) return floor_dbm_;
  return std::max(floor_dbm_, mw_to_dbm(total_mw));
}

double Environment::antenna_correction_db() const noexcept {
  // Paper Section 2.1: a(h_m) evaluated at the height deficit between the
  // regulatory reference (10 m) and the campaign antenna (2 m) -> ~7.5 dB.
  const double deficit =
      std::max(1.0, kReferenceRxHeightM - kCampaignRxHeightM);
  return HataUrbanModel::antenna_correction_db(deficit);
}

bool Environment::signal_decodable(int channel, const geo::EnuPoint& p) const {
  return rss_dbm(channel, p, hata_ref_) >= kDecodableThresholdDbm;
}

Environment make_metro_environment(const EnvironmentConfig& config) {
  const double cx =
      (config.region.min_east_m + config.region.max_east_m) / 2.0;
  const double cy =
      (config.region.min_north_m + config.region.max_north_m) / 2.0;

  // Tower offsets from the region centre (km) and ERPs (dBm). The plan is
  // tuned against Algorithm 1's aggressive 6 km dilation: median contours
  // are kept small (2-5 km) and towers are pushed toward or beyond the
  // region edge, so every partially-occupied channel leaves a substantial
  // white-space area — the occupancy spectrum the paper's channels span.
  // Channels 27 and 39 blanket the region (the two "completely occupied"
  // channels excluded from system evaluation).
  struct TowerPlan {
    int channel;
    double dx_km;
    double dy_km;
    double erp_dbm;
  };
  // Positions are offsets from the region centre in km. Towers sit 20-28 km
  // outside the drive area with 10-16 km median contours, so the region
  // straddles each station's coverage edge — the regime where the paper's
  // signal features are informative (RSS near the label boundary is weak
  // but measurable) and the regime real metro campaigns live in.
  constexpr TowerPlan kPlan[] = {
      {15, -24.0, 0.0, 69.0},   // west, ~12 km contour
      {17, 19.75, 19.75, 68.0}, // beyond the NE corner, ~11.5 km contour
      {21, 0.0, -25.25, 70.0},  // south, ~13 km contour
      {22, 21.75, 0.0, 68.0},   // east, ~11.5 km contour
      {27, 0.0, 0.0, 88.0},     // downtown, fully occupied
      {30, -21.25, -21.25, 66.0},  // SW, ~10 km contour
      {39, 0.75, 0.75, 88.0},   // downtown, fully occupied
      {46, 0.0, 21.75, 70.0},   // north, ~13 km contour
      {47, 16.75, -18.25, 67.0},   // SE, ~10.7 km contour
  };

  std::vector<Transmitter> towers;
  towers.reserve(std::size(kPlan));
  for (const TowerPlan& t : kPlan) {
    towers.push_back(Transmitter{
        .location = geo::EnuPoint{cx + t.dx_km * 1000.0,
                                  cy + t.dy_km * 1000.0},
        .channel = t.channel,
        .erp_dbm = t.erp_dbm,
        // Effective height above the urban clutter: physical masts are
        // taller, but the propagation-relevant height in dense metro
        // terrain is tens of meters — this also gives Hata the steeper,
        // more realistic urban distance slope (~33 dB/decade).
        .height_m = 60.0});
  }
  return Environment(config, std::move(towers));
}

}  // namespace waldo::rf
