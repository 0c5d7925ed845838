// CART-style binary decision tree (Gini impurity, axis-aligned splits).
// The paper tried decision trees, observed near-zero training error, and
// rejected them as overfit-prone on sparse road-following data; the tree is
// kept both as a classifier option and as the subject of that ablation.
#pragma once

#include <cstdint>

#include "waldo/ml/classifier.hpp"

namespace waldo::ml {

struct DecisionTreeConfig {
  std::size_t max_depth = 16;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 2;
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {}) : config_(config) {}

  void fit(const Matrix& x, std::span<const int> y) override;
  [[nodiscard]] int predict(std::span<const double> x) const override;
  [[nodiscard]] std::string kind() const override { return "decision_tree"; }
  void save(codec::Writer& out) const override;
  void load(codec::Reader& in) override;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

 private:
  struct Node {
    // Leaf iff feature < 0.
    int feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    int label = 0;
  };

  std::int32_t build(const Matrix& x, std::span<const int> y,
                     std::vector<std::size_t>& idx, std::size_t depth);

  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
  std::size_t depth_ = 0;
};

}  // namespace waldo::ml
