// Minimal in-place radix-2 FFT and spectral helpers. No external DSP
// dependency: feature extraction (CFT/AFT) and the pilot detector need only
// power-of-two transforms over short captures.
//
// Transforms run through a process-wide FftPlan cache: per-size twiddle
// factors and the bit-reversal permutation are computed once per size with
// the exact incremental recurrence the direct loop uses, so planned and
// unplanned transforms are bit-identical while the per-call sin/cos cost
// drops to zero in the steady state.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace waldo::dsp {

using cplx = std::complex<double>;

/// True if n is a power of two (and nonzero).
[[nodiscard]] constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Precomputed transform state for one power-of-two size: bit-reversal swap
/// pairs plus forward and inverse twiddle tables. The tables are generated
/// with the same `w *= wlen` recurrence the direct transform runs per
/// block, so applying a plan reproduces the unplanned transform bit for
/// bit (enforced by tests/test_dsp.cpp). Immutable after construction and
/// safe to share across threads.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place forward transform of `data` (size must equal size()).
  void forward(std::span<cplx> data) const;
  /// In-place inverse transform, normalised by 1/N.
  void inverse(std::span<cplx> data) const;

 private:
  void run(std::span<cplx> data, const std::vector<cplx>& twiddles) const;

  std::size_t n_;
  std::vector<std::uint32_t> swaps_;  ///< flattened (i, j) pairs, i < j
  std::vector<cplx> forward_;  ///< stages len=2,4,..,n_ concatenated
  std::vector<cplx> inverse_;
};

/// The process-wide plan for size `n` (a power of two; throws otherwise).
/// Plans are built once on first request and cached for the life of the
/// process; lookups after that are lock-free loads.
[[nodiscard]] const FftPlan& fft_plan(std::size_t n);

/// In-place forward FFT. `data.size()` must be a power of two.
void fft_inplace(std::span<cplx> data);

/// In-place inverse FFT (normalised by 1/N).
void ifft_inplace(std::span<cplx> data);

/// Forward FFT returning a new vector.
[[nodiscard]] std::vector<cplx> fft(std::span<const cplx> data);

/// Per-bin power |X_k|^2 / N^2 of the FFT of `data`, in linear units of the
/// input's power scale, arranged with DC at index N/2 (fftshift order) so
/// bin N/2 is the capture's centre frequency.
[[nodiscard]] std::vector<double> power_spectrum_shifted(
    std::span<const cplx> data);

/// Mean |x|^2 of a capture (the classic energy detector statistic) in the
/// input's linear power scale.
[[nodiscard]] double mean_power(std::span<const cplx> data) noexcept;

}  // namespace waldo::dsp
