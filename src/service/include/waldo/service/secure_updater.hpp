// Secure crowdsourced updating (Section 3.4): the reputation defence in
// front of the spectrum store. Following the collaborative-sensing defence
// the paper adopts (Fatemieh et al.), uploads are cross-checked against
// trusted nearby readings (SpectrumService's screening) and contributors
// accrue a reputation; identities that keep failing the correlation test
// are quarantined, which also blunts Sybil strategies (every new identity
// starts with limited influence). The attack models it is measured against
// are in waldo/core/security.hpp.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>

#include "waldo/campaign/measurement.hpp"
#include "waldo/service/service.hpp"

namespace waldo::service {

/// Starting reputation of an unknown identity (limits Sybil influence:
/// a fresh identity is only one bad batch away from quarantine).
inline constexpr double kInitialReputation = 0.5;

struct ContributorRecord {
  double reputation = kInitialReputation;
  std::size_t batches = 0;
  std::size_t readings_accepted = 0;
  std::size_t readings_rejected = 0;
  bool quarantined = false;
};

/// Gatekeeper between devices and SpectrumService::upload_measurements.
class SecureUpdater {
 public:
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
  SubmitResult submit(SpectrumService& store, int channel,
                      const std::string& contributor,
                      std::span<const campaign::Measurement> readings);

  [[nodiscard]] const ContributorRecord& record(
      const std::string& contributor) const;
  [[nodiscard]] bool is_quarantined(const std::string& contributor) const;
  [[nodiscard]] std::size_t num_contributors() const noexcept {
    return records_.size();
  }
 private:
  std::map<std::string, ContributorRecord> records_;
};

}  // namespace waldo::service
