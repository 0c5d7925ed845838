// Seeded key pickers and the open-loop arrival schedule. Every sequence is
// a pure function of its seed, so one workload seed reproduces one run's
// inputs exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

namespace serving {

/// Zipf(s) over keys 0..n-1. Which key gets which popularity rank is a
/// seeded permutation, so different seeds make different keys hot.
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, double s, std::uint64_t seed) : rank_to_key_(n) {
    if (n == 0) throw std::invalid_argument("ZipfPicker needs keys");
    std::iota(rank_to_key_.begin(), rank_to_key_.end(), std::size_t{0});
    std::mt19937_64 rng(seed);
    std::shuffle(rank_to_key_.begin(), rank_to_key_.end(), rng);
    cdf_.resize(n);
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  template <typename Rng>
  [[nodiscard]] std::size_t operator()(Rng& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return rank_to_key_[rank];
  }

  /// Key holding popularity rank `rank` (0 = hottest).
  [[nodiscard]] std::size_t key_of_rank(std::size_t rank) const {
    return rank_to_key_.at(rank);
  }

 private:
  std::vector<std::size_t> rank_to_key_;
  std::vector<double> cdf_;
};

/// Uniform over keys 0..n-1.
class UniformPicker {
 public:
  explicit UniformPicker(std::size_t n) : n_(n) {
    if (n == 0) throw std::invalid_argument("UniformPicker needs keys");
  }

  template <typename Rng>
  [[nodiscard]] std::size_t operator()(Rng& rng) const {
    return std::uniform_int_distribution<std::size_t>(0, n_ - 1)(rng);
  }

 private:
  std::size_t n_;
};

/// Poisson arrivals at `rate_per_s` over `duration_s`: the due time of
/// each request in nanoseconds from the start of the run.
[[nodiscard]] inline std::vector<std::uint64_t> poisson_schedule(
    double rate_per_s, double duration_s, std::uint64_t seed) {
  if (rate_per_s <= 0.0 || duration_s <= 0.0) {
    throw std::invalid_argument("poisson_schedule needs a positive rate");
  }
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_per_s / 1e9);
  std::vector<std::uint64_t> due;
  due.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  const double end = duration_s * 1e9;
  for (double t = gap(rng); t < end; t += gap(rng)) {
    due.push_back(static_cast<std::uint64_t>(t));
  }
  return due;
}

}  // namespace serving
