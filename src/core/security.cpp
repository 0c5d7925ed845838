#include "waldo/core/security.hpp"

#include <random>
#include <stdexcept>

namespace waldo::core {

std::vector<campaign::Measurement> forge_uploads(const AttackConfig& config) {
  if (config.target_area.width_m() <= 0.0 ||
      config.target_area.height_m() <= 0.0) {
    throw std::invalid_argument("attack target area must have positive area");
  }
  std::mt19937_64 rng(config.seed);
  std::uniform_real_distribution<double> ue(config.target_area.min_east_m,
                                            config.target_area.max_east_m);
  std::uniform_real_distribution<double> un(config.target_area.min_north_m,
                                            config.target_area.max_north_m);
  std::normal_distribution<double> jitter(0.0, 0.5);  // plausible-looking

  std::vector<campaign::Measurement> out;
  out.reserve(config.num_reports);
  for (std::size_t i = 0; i < config.num_reports; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{ue(rng), un(rng)};
    m.rss_dbm = config.forged_rss_dbm + jitter(rng);
    // A naive attacker forges spectral features consistent with the claim.
    m.cft_db = m.rss_dbm - 11.3;
    m.aft_db = m.rss_dbm - 20.0;
    out.push_back(m);
  }
  return out;
}

}  // namespace waldo::core
