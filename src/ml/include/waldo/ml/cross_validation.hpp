// k-fold cross validation — the paper's evaluation protocol (Section 4.1):
// 10 folds, train on 90 %, test on 10 %, repeat to cover all data.
#pragma once

#include <cstdint>

#include "waldo/ml/classifier.hpp"
#include "waldo/ml/metrics.hpp"

namespace waldo::ml {

struct CrossValidationConfig {
  std::size_t folds = 10;
  std::uint64_t seed = 17;
  /// Optional cap on the training rows per fold (uniform random subsample).
  /// Keeps kernel-SVM training tractable in wide parameter sweeps; 0 means
  /// use every training row. Capping is an evaluation-cost knob only — it
  /// never touches test rows.
  std::size_t max_train_samples = 0;
};

struct CrossValidationResult {
  ConfusionMatrix overall;
  std::vector<ConfusionMatrix> per_fold;
};

/// Shuffled fold assignment: returns `folds` disjoint index sets covering
/// [0, n).
[[nodiscard]] std::vector<std::vector<std::size_t>> kfold_indices(
    std::size_t n, std::size_t folds, std::uint64_t seed);

/// Runs k-fold CV of `factory`-produced classifiers on (x, y).
[[nodiscard]] CrossValidationResult cross_validate(
    const Matrix& x, std::span<const int> y, const ClassifierFactory& factory,
    const CrossValidationConfig& config = {});

}  // namespace waldo::ml
