// The ground-truth RF environment: TV transmitters over a metro region with
// Hata median loss, correlated shadowing, and obstruction pockets. This is
// the substitute for the paper's physical Atlanta campaign area; everything
// downstream (sensors, campaign, labeling, classifiers, baselines) treats
// it as the world.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "waldo/geo/latlon.hpp"
#include "waldo/rf/channels.hpp"
#include "waldo/rf/path_loss.hpp"
#include "waldo/rf/shadowing.hpp"

namespace waldo::rf {

/// A licensed TV transmitter (the protected incumbent).
struct Transmitter {
  geo::EnuPoint location;
  int channel = 0;
  /// Effective radiated power, dBm (1 MW ERP = 90 dBm).
  double erp_dbm = 90.0;
  /// Antenna height above average terrain, meters.
  double height_m = 300.0;
};

/// Receiver antenna heights: the campaign's (paper: 2 m van roof) and the
/// regulatory reference height (10 m). Environment answers at these two.
inline constexpr double kCampaignRxHeightM = 2.0;
inline constexpr double kReferenceRxHeightM = 10.0;

struct EnvironmentConfig {
  /// Metro region; defaults match the paper's 700 km^2 Atlanta campaign
  /// (26.5 km square).
  geo::BoundingBox region{0.0, 0.0, 26'500.0, 26'500.0};
  /// Shadowing: sigma and Gudmundson decorrelation distance. Sigma is kept
  /// moderate because Algorithm 1's 6 km dilation reacts to the *maximum*
  /// shadowing excursion over thousands of readings; deep deterministic
  /// pockets come from the obstacle field instead.
  double shadowing_sigma_db = 2.5;
  double shadowing_decorrelation_m = 300.0;
  double shadowing_cell_m = 125.0;
  /// Obstruction pockets.
  std::size_t obstacle_count = 28;
  double obstacle_min_radius_m = 600.0;
  double obstacle_max_radius_m = 2'800.0;
  double obstacle_min_atten_db = 12.0;
  double obstacle_max_atten_db = 28.0;
  std::uint64_t seed = 42;
};

/// Immutable world model. Thread-compatible: all queries are const.
class Environment {
 public:
  Environment(EnvironmentConfig config, std::vector<Transmitter> transmitters);

  /// Variant with an explicit obstruction field (used by seasonal_variant
  /// to keep buildings in place while the season changes around them).
  Environment(EnvironmentConfig config, std::vector<Transmitter> transmitters,
              ObstacleField obstacles);

  [[nodiscard]] const EnvironmentConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const std::vector<Transmitter>& transmitters() const noexcept {
    return transmitters_;
  }
  [[nodiscard]] const ObstacleField& obstacles() const noexcept {
    return obstacles_;
  }
  /// Transmitters broadcasting on `channel`, in transmitter-index order.
  /// Served from an index precomputed at construction — no per-call
  /// allocation; the reference stays valid for the environment's lifetime.
  [[nodiscard]] const std::vector<const Transmitter*>& transmitters_on(
      int channel) const;

  /// Ground-truth received TV signal power on `channel` at `p` for the
  /// campaign receiver height (kCampaignRxHeightM), in dBm. Returns the
  /// incoherent power sum over co-channel transmitters; -infinity-like
  /// floor (-200 dBm) when the channel is silent.
  [[nodiscard]] double true_rss_dbm(int channel,
                                    const geo::EnuPoint& p) const;

  /// Hata mobile-antenna correction between the campaign height and the
  /// regulatory reference height; the paper's +7.5 dB constant.
  [[nodiscard]] double antenna_correction_db() const noexcept;

  /// True if the TV signal is decodable (RSS at the reference height
  /// kReferenceRxHeightM above the -84 dBm protection threshold) at `p` —
  /// the regulatory ground truth.
  [[nodiscard]] bool signal_decodable(int channel,
                                      const geo::EnuPoint& p) const;

  // The channel index and per-transmitter Hata models point into / depend
  // on transmitters_, so copies rebuild them against their own storage.
  // Nothing assigns one environment over another.
  Environment(const Environment& other);
  Environment(Environment&& other) noexcept;
  Environment& operator=(const Environment&) = delete;
  Environment& operator=(Environment&&) = delete;
  ~Environment() = default;

 private:
  /// Builds by_channel_ and the per-transmitter Hata models. Called from
  /// every constructor/assignment once transmitters_ is in place.
  void build_propagation_index();

  /// true_rss_dbm with one of the two per-transmitter Hata tables below.
  [[nodiscard]] double rss_dbm(int channel, const geo::EnuPoint& p,
                               const std::vector<HataUrbanModel>& hata) const;

  EnvironmentConfig config_;
  std::vector<Transmitter> transmitters_;
  ObstacleField obstacles_;
  /// One shadowing field per transmitter (paths to distinct towers decor-
  /// relate), keyed by transmitter index.
  std::vector<ShadowingField> shadowing_;
  double floor_dbm_ = -200.0;

  /// Per-channel transmitter index, ascending transmitter order — the sum
  /// order of true_rss_dbm is unchanged from the original linear scan.
  struct ChannelTransmitters {
    std::vector<std::size_t> indices;
    std::vector<const Transmitter*> pointers;
  };
  std::map<int, ChannelTransmitters> by_channel_;
  /// Hoisted Hata state per transmitter at the campaign and the reference
  /// receiver heights, built once per transmitter.
  std::vector<HataUrbanModel> hata_rx_;
  std::vector<HataUrbanModel> hata_ref_;
};

/// The "months later" world of the paper's second collection set (Section
/// 2.1 collected two sets several months apart with unchanged calibration):
/// identical towers and buildings, fresh small-scale shadowing detail, and
/// a foliage term added to every obstruction.
struct SeasonalDrift {
  double foliage_extra_db = 2.0;
  std::uint64_t shadowing_reseed = 7'777;
};
[[nodiscard]] Environment seasonal_variant(const Environment& base,
                                           const SeasonalDrift& drift = {});

/// Builds the Atlanta-like evaluation world used throughout tests and
/// benches: one tower per paper channel clustered near midtown, ERPs chosen
/// so channels span the paper's spectrum of occupancy — channels 27 and 39
/// blanket the region (the two "completely occupied" channels), others
/// cover it partially, leaving detectable white-space pockets.
[[nodiscard]] Environment make_metro_environment(
    const EnvironmentConfig& config = {});

}  // namespace waldo::rf
