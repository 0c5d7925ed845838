// What one benchmark run reports, and the small statistics it needs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace serving {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void fail(std::string what) { errors.push_back(std::move(what)); }
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// A measured run is cut into this many equal windows by request start
/// time; latency quantiles and rates are computed per window and the
/// median over the windows is reported, so a stall in one window moves a
/// metric by one window's worth at most.
inline constexpr std::size_t kWindows = 10;

/// Latency samples of one load thread, each tagged with its window. The
/// storage is allocated and touched up front, so the benchmark's own
/// memory does not grow with throughput; samples past the capacity are
/// dropped.
class LatencyLog {
 public:
  explicit LatencyLog(std::size_t capacity = 0)
      : ns_(capacity, 0), window_(capacity, 0) {}

  void add(std::uint64_t ns, std::size_t window) {
    if (size_ == ns_.size()) return;
    ns_[size_] = static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, 0xFFFFFFFFu));
    window_[size_] = static_cast<std::uint8_t>(std::min(window, kWindows - 1));
    ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t ns(std::size_t i) const { return ns_[i]; }
  [[nodiscard]] std::size_t window(std::size_t i) const { return window_[i]; }

 private:
  std::vector<std::uint32_t> ns_;
  std::vector<std::uint8_t> window_;
  std::size_t size_ = 0;
};

/// Median over the windows of each window's q-quantile (in ns), pooling
/// the samples of every log. Windows without samples are skipped.
[[nodiscard]] inline double windowed_quantile(
    const std::vector<const LatencyLog*>& logs, double q) {
  std::vector<std::vector<std::uint64_t>> per_window(kWindows);
  for (const LatencyLog* log : logs) {
    for (std::size_t i = 0; i < log->size(); ++i) {
      per_window[log->window(i)].push_back(log->ns(i));
    }
  }
  std::vector<double> values;
  for (auto& w : per_window) {
    if (!w.empty()) values.push_back(quantile(std::move(w), q));
  }
  return median(std::move(values));
}

/// Median over the windows of each window's completions per second.
[[nodiscard]] inline double windowed_rate(
    const std::vector<std::uint64_t>& completed_per_window,
    double window_seconds) {
  std::vector<double> rates;
  for (const std::uint64_t n : completed_per_window) {
    rates.push_back(static_cast<double>(n) / window_seconds);
  }
  return median(std::move(rates));
}

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace serving
