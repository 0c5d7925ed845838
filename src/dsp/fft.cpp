#include "waldo/dsp/fft.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace waldo::dsp {

namespace {

/// Complex product by the naive formula — the value __muldc3 (the libcall
/// behind std::complex operator*) returns for finite operands, without the
/// non-finite fix-up branches. Every operand in a transform of finite data
/// is finite, so planned and operator* transforms agree bit for bit.
[[nodiscard]] inline cplx mul(const cplx& a, const cplx& b) noexcept {
  return cplx(a.real() * b.real() - a.imag() * b.imag(),
              a.real() * b.imag() + a.imag() * b.real());
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("FFT size must be 2^k");
  if (n > (std::size_t{1} << 31)) {
    throw std::invalid_argument("FFT size too large for plan index type");
  }
  // Bit-reversal swap pairs, exactly the pairs the direct loop swaps.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      swaps_.push_back(static_cast<std::uint32_t>(i));
      swaps_.push_back(static_cast<std::uint32_t>(j));
    }
  }
  // Twiddle tables per stage, generated with the direct loop's incremental
  // `w *= wlen` recurrence (NOT cos/sin per entry): every block of a stage
  // restarts the same recurrence, so one table per stage reproduces the
  // direct transform's values exactly.
  forward_.reserve(n > 0 ? n - 1 : 0);
  inverse_.reserve(n > 0 ? n - 1 : 0);
  for (const bool inv : {false, true}) {
    std::vector<cplx>& table = inv ? inverse_ : forward_;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang = 2.0 * std::numbers::pi / static_cast<double>(len) *
                         (inv ? 1.0 : -1.0);
      const cplx wlen(std::cos(ang), std::sin(ang));
      cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        table.push_back(w);
        w *= wlen;
      }
    }
  }
}

void FftPlan::run(std::span<cplx> data, const std::vector<cplx>& tw) const {
  cplx* const a = data.data();
  for (std::size_t s = 0; s + 1 < swaps_.size(); s += 2) {
    std::swap(a[swaps_[s]], a[swaps_[s + 1]]);
  }
  std::size_t offset = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    const cplx* const stage = tw.data() + offset;
    for (std::size_t i = 0; i < n_; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cplx u = a[i + k];
        const cplx v = mul(a[i + k + half], stage[k]);
        a[i + k] = u + v;
        a[i + k + half] = u - v;
      }
    }
    offset += half;
  }
}

void FftPlan::forward(std::span<cplx> data) const {
  if (data.size() != n_) {
    throw std::invalid_argument("FFT plan size mismatch");
  }
  run(data, forward_);
}

void FftPlan::inverse(std::span<cplx> data) const {
  if (data.size() != n_) {
    throw std::invalid_argument("FFT plan size mismatch");
  }
  run(data, inverse_);
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (cplx& x : data) x *= inv_n;
}

const FftPlan& fft_plan(std::size_t n) {
  if (!is_pow2(n)) throw std::invalid_argument("FFT size must be 2^k");
  // One slot per power of two; plans are built once and never freed, so a
  // reference stays valid for the life of the process and the fast path is
  // a single acquire load.
  static std::array<std::atomic<const FftPlan*>, 64> cache{};
  auto& slot = cache[static_cast<std::size_t>(std::countr_zero(n))];
  const FftPlan* plan = slot.load(std::memory_order_acquire);
  if (plan == nullptr) {
    const auto* fresh = new FftPlan(n);
    const FftPlan* expected = nullptr;
    if (slot.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel)) {
      plan = fresh;
    } else {
      delete fresh;  // another thread won the race
      plan = expected;
    }
  }
  return *plan;
}

void fft_inplace(std::span<cplx> data) { fft_plan(data.size()).forward(data); }

void ifft_inplace(std::span<cplx> data) {
  fft_plan(data.size()).inverse(data);
}

std::vector<cplx> fft(std::span<const cplx> data) {
  std::vector<cplx> out(data.begin(), data.end());
  fft_inplace(out);
  return out;
}

std::vector<double> power_spectrum_shifted(std::span<const cplx> data) {
  const std::size_t n = data.size();
  std::vector<cplx> spec = fft(data);
  std::vector<double> power(n);
  const double norm = 1.0 / (static_cast<double>(n) * static_cast<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    // fftshift: output index n/2 corresponds to DC (bin 0).
    const std::size_t src = (k + n / 2) % n;
    power[k] = std::norm(spec[src]) * norm;
  }
  return power;
}

double mean_power(std::span<const cplx> data) noexcept {
  if (data.empty()) return 0.0;
  double acc = 0.0;
  for (const cplx& x : data) acc += std::norm(x);
  return acc / static_cast<double>(data.size());
}

}  // namespace waldo::dsp
