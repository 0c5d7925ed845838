#include "waldo/service/secure_updater.hpp"

#include <stdexcept>

namespace waldo::service {

namespace {

/// EWMA weight of the newest batch's acceptance ratio.
constexpr double kSmoothing = 0.3;
/// Contributors below this reputation are quarantined: their uploads are
/// dropped before reaching the database.
constexpr double kQuarantineThreshold = 0.4;

}  // namespace

SecureUpdater::SubmitResult SecureUpdater::submit(
    SpectrumService& store, int channel, const std::string& contributor,
    std::span<const campaign::Measurement> readings) {
  ContributorRecord& rec = records_[contributor];

  SubmitResult result;
  if (rec.quarantined) {
    result.quarantined = true;
    result.rejected = readings.size();
    return result;
  }

  const core::UploadResult upload =
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
    rec.reputation = (1.0 - kSmoothing) * rec.reputation +
                     kSmoothing * batch_score;
  }
  if (rec.reputation < kQuarantineThreshold) {
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

}  // namespace waldo::service
