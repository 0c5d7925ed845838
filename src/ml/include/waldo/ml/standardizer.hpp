// Per-column z-score standardisation. Feature columns mix units (meters of
// easting vs dB of pilot power), so kernel methods must normalise; the
// fitted parameters ship inside the model descriptor.
#pragma once

#include <span>
#include <vector>

#include "waldo/ml/matrix.hpp"

namespace waldo::codec {
class Reader;
class Writer;
}  // namespace waldo::codec

namespace waldo::ml {

class Standardizer {
 public:
  /// Learns column means and standard deviations. Constant columns get a
  /// unit scale so they pass through unchanged (centred).
  void fit(MatrixView x);

  /// Installs the identity transform for `dims` columns (mean 0, scale 1):
  /// raw feature values pass through untouched. Used by the paper-faithful
  /// SVM mode, which — like the paper's OpenCV pipeline — feeds raw
  /// feature units to the kernel.
  void set_identity(std::size_t dims);

  [[nodiscard]] bool fitted() const noexcept { return !mean_.empty(); }
  [[nodiscard]] std::size_t dims() const noexcept { return mean_.size(); }

  [[nodiscard]] Matrix transform(MatrixView x) const;
  [[nodiscard]] std::vector<double> transform(
      std::span<const double> row) const;

  /// Binary (v1) payload over the waldo::codec wire format.
  void save(codec::Writer& out) const;
  void load(codec::Reader& in);

  [[nodiscard]] const std::vector<double>& mean() const noexcept {
    return mean_;
  }
  [[nodiscard]] const std::vector<double>& scale() const noexcept {
    return scale_;
  }

 private:
  std::vector<double> mean_;
  std::vector<double> scale_;
};

}  // namespace waldo::ml
