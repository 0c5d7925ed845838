// Gaussian Naive Bayes — the compact probabilistic classifier the paper
// evaluates against SVM. Its descriptor is an order of magnitude smaller
// (per-class, per-feature mean and variance only), trading accuracy near
// the coverage border where weak-signal features resemble noise (the FN
// inflation the paper reports for NB).
#pragma once

#include <array>

#include "waldo/ml/classifier.hpp"

namespace waldo::ml {

class GaussianNaiveBayes final : public Classifier {
 public:
  /// Widest feature row it trains on: location, RSS, CFT and AFT, the
  /// model constructor's widest row (core::feature_columns(4)).
  static constexpr std::size_t kMaxDims = 5;

  /// Throws std::invalid_argument for rows wider than kMaxDims.
  void fit(MatrixView x, std::span<const int> y) override;
  [[nodiscard]] int predict(std::span<const double> x) const override;
  [[nodiscard]] std::string kind() const override { return "naive_bayes"; }
  void save(codec::Writer& out) const override;
  void load(codec::Reader& in) override;

  /// Log posterior ratio log P(safe|x) - log P(not_safe|x).
  [[nodiscard]] double decision_value(std::span<const double> x) const;

 private:
  struct ClassModel {
    double log_prior = 0.0;
    std::vector<double> mean;
    std::vector<double> var;
  };
  std::array<ClassModel, 2> classes_;  // [kNotSafe, kSafe]
  std::size_t dims_ = 0;
  bool single_class_ = false;
  int only_class_ = 0;
};

}  // namespace waldo::ml
