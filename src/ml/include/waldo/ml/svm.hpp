// C-SVC trained with sequential minimal optimization (Platt's SMO with an
// error cache and max-|E_i - E_j| second-choice heuristic). RBF kernel by
// default — the decision regions Waldo needs (coverage disks, shadowing
// pockets) are not linearly separable in location coordinates. Features are
// standardised internally and the scaler ships in the descriptor, so a WSD
// can feed raw (location, RSS, CFT, AFT) vectors.
#pragma once

#include <cstdint>

#include "waldo/ml/classifier.hpp"
#include "waldo/ml/standardizer.hpp"

namespace waldo::ml {

enum class SvmKernel { kRbf, kLinear };

struct SvmConfig {
  SvmKernel kernel = SvmKernel::kRbf;
  double c = 10.0;          ///< box constraint
  /// RBF gamma; <= 0 selects the "scale" heuristic 1 / n_features (features
  /// are already unit-variance after internal standardisation).
  double gamma = -1.0;
  /// Standardise features internally (recommended). Setting this false
  /// reproduces the paper's OpenCV pipeline, which fed raw feature units
  /// (degrees of latitude next to dB of pilot power) to the kernel.
  bool standardize = true;
  std::uint64_t seed = 7;   ///< tie-breaking randomness
};

class Svm final : public Classifier {
 public:
  explicit Svm(SvmConfig config = {}) : config_(config) {}

  void fit(MatrixView x, std::span<const int> y) override;
  [[nodiscard]] int predict(std::span<const double> x) const override;
  [[nodiscard]] std::string kind() const override { return "svm"; }
  void save(codec::Writer& out) const override;
  void load(codec::Reader& in) override;

  /// Signed decision value f(x); >= 0 predicts safe.
  [[nodiscard]] double decision_value(std::span<const double> x) const;

  [[nodiscard]] std::size_t num_support_vectors() const noexcept {
    return sv_.rows();
  }
  [[nodiscard]] const SvmConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] double kernel(std::span<const double> a,
                              std::span<const double> b) const;

  SvmConfig config_;
  Standardizer scaler_;
  Matrix sv_;                      ///< support vectors (standardised)
  std::vector<double> sv_coef_;    ///< alpha_i * y_i
  double bias_ = 0.0;
  double gamma_ = 1.0;             ///< resolved gamma
  bool single_class_ = false;
  int only_class_ = 0;
};

}  // namespace waldo::ml
