// The on-device White Space Detector (Section 3.3). Low-cost hardware is
// noisy, so the detector streams readings and only commits to a value once
// it is stable: readings outside the 5th..95th percentile are discarded,
// the rest are averaged, and the estimate converges when the span of the
// 90 % confidence interval of the mean drops below the sensitivity
// parameter alpha (dB).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace waldo::core {

struct DetectorConfig {
  double alpha_db = 0.5;           ///< CI-span convergence threshold
  std::size_t min_samples = 5;     ///< refuse to converge earlier
  std::size_t max_samples = 500;   ///< mobility guard: give up after this
};

/// Streaming convergence filter for one channel's RSS estimate.
class ConvergenceFilter {
 public:
  explicit ConvergenceFilter(DetectorConfig config = {});

  /// Feeds one reading. Returns true once converged (and stays true).
  bool ingest(double rss_dbm);

  [[nodiscard]] bool converged() const noexcept { return converged_; }
  /// True when max_samples was hit without convergence (mobile scenario).
  [[nodiscard]] bool exhausted() const noexcept;

  /// Trimmed-mean estimate over the accepted readings. Requires at least
  /// one ingested reading.
  [[nodiscard]] double estimate_dbm() const;
  /// Current span of the confidence interval of the mean, dB.
  [[nodiscard]] double ci_span_db() const;
  [[nodiscard]] std::size_t samples_seen() const noexcept {
    return readings_.size();
  }

  [[nodiscard]] const DetectorConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Readings surviving the percentile trim.
  [[nodiscard]] std::vector<double> trimmed() const;

  DetectorConfig config_;
  std::vector<double> readings_;
  bool converged_ = false;
};

/// Two-sided normal critical value for a `confidence` interval (e.g.
/// 1.645 at 90 %). Exposed for tests.
[[nodiscard]] double normal_critical_value(double confidence);

}  // namespace waldo::core
