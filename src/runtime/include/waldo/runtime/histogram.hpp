// Lock-free fixed-footprint latency histogram: log2 octaves subdivided
// into 16 linear sub-buckets (HdrHistogram-style), so quantile estimates
// are within ~6 % of the true value at any scale from 1 ns to hours.
// record() is wait-free (one relaxed fetch_add) and safe from any number
// of threads; snapshot() is approximate while writers are active and
// exact at quiescence. The serving layer (waldo::service) uses it for its
// p50/p99 handle-latency stats.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace waldo::runtime {

class LatencyHistogram {
 public:
  /// Accumulates one observation. Wait-free, thread-safe.
  void record(std::uint64_t nanos) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t max_ns = 0;
    double p50_ns = 0.0;
    double p90_ns = 0.0;
    double p99_ns = 0.0;
  };
  /// Point-in-time quantile summary (bucket-midpoint interpolation).
  [[nodiscard]] Snapshot snapshot() const;

  static constexpr std::size_t kBuckets = 1024;

 private:
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t nanos) noexcept;
  [[nodiscard]] static double bucket_midpoint_ns(std::size_t index) noexcept;

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

}  // namespace waldo::runtime
