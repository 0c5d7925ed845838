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

SecureUpdater::SubmitResult SecureUpdater::submit(
    SpectrumStore& store, int channel, const std::string& contributor,
    std::span<const campaign::Measurement> readings) {
  ContributorRecord& rec =
      records_.try_emplace(contributor,
                           ContributorRecord{
                               .reputation = policy_.initial_reputation})
          .first->second;

  SubmitResult result;
  if (rec.quarantined) {
    result.quarantined = true;
    result.rejected = readings.size();
    return result;
  }

  const UploadResult upload =
      store.upload_measurements(channel, readings, contributor);
  result.accepted = upload.accepted;
  result.rejected = upload.rejected;
  result.pending = upload.pending;

  ++rec.batches;
  rec.readings_accepted += upload.accepted;
  rec.readings_rejected += upload.rejected;
  const std::size_t total = upload.accepted + upload.rejected;
  if (total > 0) {
    const double batch_score =
        static_cast<double>(upload.accepted) / static_cast<double>(total);
    rec.reputation = (1.0 - policy_.smoothing) * rec.reputation +
                     policy_.smoothing * batch_score;
  }
  if (rec.reputation < policy_.quarantine_threshold) {
    rec.quarantined = true;
    // Readings this identity parked before tripping the threshold must not
    // linger: a later accomplice could corroborate them into the trusted
    // store, bypassing the quarantine entirely.
    result.purged_pending = store.purge_pending(contributor);
  }
  return result;
}

const ContributorRecord& SecureUpdater::record(
    const std::string& contributor) const {
  const auto it = records_.find(contributor);
  if (it == records_.end()) {
    throw std::out_of_range("unknown contributor: " + contributor);
  }
  return it->second;
}

bool SecureUpdater::is_quarantined(const std::string& contributor) const {
  const auto it = records_.find(contributor);
  return it != records_.end() && it->second.quarantined;
}

}  // namespace waldo::core
