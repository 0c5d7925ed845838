// k-nearest-neighbours classifier. Used both as a Waldo-compatible model
// and as the measurement-augmented-database interpolation baseline family
// (KNN over location, paper Section 4.1). Deliberately NOT Waldo-friendly:
// its "descriptor" is the entire training set, which the model-size bench
// quantifies.
#pragma once

#include "waldo/ml/classifier.hpp"
#include "waldo/ml/standardizer.hpp"

namespace waldo::ml {

struct KnnConfig {
  std::size_t k = 5;
};

class KnnClassifier final : public Classifier {
 public:
  explicit KnnClassifier(KnnConfig config = {}) : config_(config) {}

  void fit(const Matrix& x, std::span<const int> y) override;
  [[nodiscard]] int predict(std::span<const double> x) const override;
  [[nodiscard]] std::string kind() const override { return "knn"; }
  void save(codec::Writer& out) const override;
  void load(codec::Reader& in) override;

 private:
  KnnConfig config_;
  Standardizer scaler_;
  Matrix train_;
  std::vector<int> labels_;
};

}  // namespace waldo::ml
