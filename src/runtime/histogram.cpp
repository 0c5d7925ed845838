#include "waldo/runtime/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace waldo::runtime {

// Index layout: values 0..15 map to buckets 0..15 exactly; larger values
// land in (octave << 4) + top-4-mantissa-bits, giving 16 linear
// sub-buckets per power of two. The top index for a 64-bit value is 975,
// comfortably inside kBuckets.
std::size_t LatencyHistogram::bucket_index(std::uint64_t nanos) noexcept {
  if (nanos < 16) return static_cast<std::size_t>(nanos);
  const int msb = 63 - std::countl_zero(nanos);
  const int shift = msb - 4;
  const std::size_t index = (static_cast<std::size_t>(msb - 3) << 4) +
                            static_cast<std::size_t>((nanos >> shift) & 0xF);
  // Saturate so an arithmetic slip can never index out of bounds; the top
  // reachable index for a 64-bit value is 975 < kBuckets.
  return index < kBuckets ? index : kBuckets - 1;
}

double LatencyHistogram::bucket_midpoint_ns(std::size_t index) noexcept {
  if (index < 16) return static_cast<double>(index);
  const std::size_t octave = index >> 4;  // >= 1
  const std::uint64_t sub = index & 0xF;
  const int shift = static_cast<int>(octave) - 1;
  const double lo = static_cast<double>((16 + sub) << shift);
  const double width = static_cast<double>(std::uint64_t{1} << shift);
  return lo + width / 2.0;
}

void LatencyHistogram::record(std::uint64_t nanos) noexcept {
  buckets_[bucket_index(nanos)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
  while (nanos > seen && !max_ns_.compare_exchange_weak(
                             seen, nanos, std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot out;
  std::array<std::uint64_t, kBuckets> counts;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    out.count += counts[b];
  }
  out.max_ns = max_ns_.load(std::memory_order_relaxed);
  if (out.count == 0) return out;

  const auto quantile = [&counts, &out](double q) {
    // Nearest-rank (1-based, ceil): the q-quantile of n observations is
    // the ceil(q*n)-th smallest — floor would under-report tail quantiles
    // whenever q*n is fractional (p99 of 3 samples must be the largest).
    std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(out.count)));
    if (target < 1) target = 1;
    if (target > out.count) target = out.count;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts[b];
      if (seen >= target) return bucket_midpoint_ns(b);
    }
    return bucket_midpoint_ns(kBuckets - 1);
  };
  // Bucket midpoints can overshoot the true sample values (a single
  // observation of 17 ns lands in a bucket whose midpoint is 17.5 ns), so
  // clamp every quantile to the exact recorded maximum. This keeps the
  // p50 <= p90 <= p99 <= max invariant that sparse histograms (a handful
  // of samples) would otherwise violate.
  const double cap = static_cast<double>(out.max_ns);
  out.p50_ns = std::min(quantile(0.50), cap);
  out.p90_ns = std::min(quantile(0.90), cap);
  out.p99_ns = std::min(quantile(0.99), cap);
  return out;
}

}  // namespace waldo::runtime
