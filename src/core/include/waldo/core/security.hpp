// Attack models for secure crowdsourced updating (Section 3.4). Waldo's
// central database accepts measurements from untrusted devices, so a
// malicious contributor can try to (a) forge vacancy — report low RSS so
// the model opens an occupied channel and causes interference — or (b)
// forge occupancy — deny white space to competitors. The defence that the
// paper adopts (Fatemieh et al.) lives at the database:
// service::SecureUpdater (waldo/service/secure_updater.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "waldo/campaign/measurement.hpp"

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

}  // namespace waldo::core
