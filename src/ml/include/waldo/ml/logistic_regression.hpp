// L2-regularised logistic regression, fitted by iteratively reweighted
// least squares (Newton's method) — the "regression analysis-based
// classifier" family the paper lists among Waldo-friendly models: its
// descriptor is a single weight vector, the smallest of any model here.
#pragma once

#include "waldo/ml/classifier.hpp"
#include "waldo/ml/standardizer.hpp"

namespace waldo::ml {

class LogisticRegression final : public Classifier {
 public:
  void fit(MatrixView x, std::span<const int> y) override;
  [[nodiscard]] int predict(std::span<const double> x) const override;
  [[nodiscard]] std::string kind() const override {
    return "logistic_regression";
  }
  void save(codec::Writer& out) const override;
  void load(codec::Reader& in) override;

  /// P(safe | x).
  [[nodiscard]] double probability(std::span<const double> x) const;
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weights_;
  }

 private:
  [[nodiscard]] double linear(std::span<const double> standardized) const;

  Standardizer scaler_;
  std::vector<double> weights_;  ///< [bias, w_1 .. w_d]
  bool single_class_ = false;
  int only_class_ = 0;
};

}  // namespace waldo::ml
