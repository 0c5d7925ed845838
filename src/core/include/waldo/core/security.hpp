// Secure crowdsourced updating (Section 3.4). Waldo's central database
// accepts measurements from untrusted devices, so a malicious contributor
// can try to (a) forge vacancy — report low RSS so the model opens an
// occupied channel and causes interference — or (b) forge occupancy — deny
// white space to competitors. Following the collaborative-sensing defence
// the paper adopts (Fatemieh et al.), uploads are cross-checked against
// trusted nearby readings and contributors accrue a reputation; identities
// that keep failing the correlation test are quarantined, which also blunts
// Sybil strategies (every new identity starts with limited influence).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "waldo/core/database.hpp"

namespace waldo::core {

/// Attack models used by tests and the security ablation bench.
enum class AttackType {
  kFalseVacancy,    ///< claim an occupied area is silent
  kFalseOccupancy,  ///< claim a vacant area is hot
};

struct AttackConfig {
  AttackType type = AttackType::kFalseVacancy;
  /// Area the attacker wants to flip.
  geo::BoundingBox target_area;
  /// RSS the attacker forges (dBm). Vacancy attacks report near-floor
  /// values; occupancy attacks report decodable-strength values.
  double forged_rss_dbm = -110.0;
  std::size_t num_reports = 50;
  std::uint64_t seed = 5150;
};

/// Fabricates a batch of malicious measurements per the attack config.
[[nodiscard]] std::vector<campaign::Measurement> forge_uploads(
    const AttackConfig& config);

struct ReputationPolicy {
  /// EWMA weight of the newest batch's acceptance ratio.
  double smoothing = 0.3;
  /// Contributors below this reputation are quarantined: their uploads are
  /// dropped before reaching the database.
  double quarantine_threshold = 0.4;
  /// Starting reputation of an unknown identity (limits Sybil influence:
  /// a fresh identity is only one bad batch away from quarantine).
  double initial_reputation = 0.5;
};

struct ContributorRecord {
  double reputation = 0.5;
  std::size_t batches = 0;
  std::size_t readings_accepted = 0;
  std::size_t readings_rejected = 0;
  bool quarantined = false;
};

/// Gatekeeper between devices and SpectrumStore::upload_measurements: the
/// reputation defence runs in front of whichever store accepts the uploads
/// (in Waldo, service::SpectrumService).
class SecureUpdater {
 public:
  explicit SecureUpdater(ReputationPolicy policy = {}) : policy_(policy) {}

  struct SubmitResult {
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t pending = 0;   ///< held for corroboration
    bool quarantined = false;  ///< batch dropped without touching the store
    /// Pending readings of this contributor purged across all channels
    /// when this batch tripped the quarantine threshold (a quarantined
    /// identity's stash must never be promoted by later corroboration).
    std::size_t purged_pending = 0;
  };

  /// Submits a batch on behalf of `contributor`. Quarantined contributors
  /// are refused outright; otherwise the store's correlation check runs
  /// and the outcome updates the contributor's reputation. Crossing the
  /// quarantine threshold also purges the contributor's pending readings.
  SubmitResult submit(SpectrumStore& store, int channel,
                      const std::string& contributor,
                      std::span<const campaign::Measurement> readings);

  [[nodiscard]] const ContributorRecord& record(
      const std::string& contributor) const;
  [[nodiscard]] bool is_quarantined(const std::string& contributor) const;
  [[nodiscard]] std::size_t num_contributors() const noexcept {
    return records_.size();
  }
  [[nodiscard]] const ReputationPolicy& policy() const noexcept {
    return policy_;
  }

 private:
  ReputationPolicy policy_;
  std::map<std::string, ContributorRecord> records_;
};

}  // namespace waldo::core
