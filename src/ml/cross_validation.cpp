#include "waldo/ml/cross_validation.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

namespace waldo::ml {

std::vector<std::vector<std::size_t>> kfold_indices(std::size_t n,
                                                    std::size_t folds,
                                                    std::uint64_t seed) {
  if (folds < 2) throw std::invalid_argument("need at least 2 folds");
  if (n < folds) throw std::invalid_argument("fewer samples than folds");
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<std::vector<std::size_t>> out(folds);
  for (std::size_t i = 0; i < n; ++i) out[i % folds].push_back(perm[i]);
  return out;
}

namespace {

/// Uniform random subsample of `idx` down to `cap` elements (no-op if cap
/// is zero or already satisfied).
void cap_indices(std::vector<std::size_t>& idx, std::size_t cap,
                 std::uint64_t seed) {
  if (cap == 0 || idx.size() <= cap) return;
  std::mt19937_64 rng(seed);
  std::shuffle(idx.begin(), idx.end(), rng);
  idx.resize(cap);
}

}  // namespace

CrossValidationResult cross_validate(const Matrix& x, std::span<const int> y,
                                     const ClassifierFactory& factory,
                                     const CrossValidationConfig& config) {
  if (x.rows() != y.size()) {
    throw std::invalid_argument("cross_validate: size mismatch");
  }
  const auto folds = kfold_indices(x.rows(), config.folds, config.seed);

  CrossValidationResult result;
  result.per_fold.reserve(folds.size());
  for (std::size_t f = 0; f < folds.size(); ++f) {
    std::vector<std::size_t> train_idx;
    train_idx.reserve(x.rows() - folds[f].size());
    for (std::size_t g = 0; g < folds.size(); ++g) {
      if (g == f) continue;
      train_idx.insert(train_idx.end(), folds[g].begin(), folds[g].end());
    }
    cap_indices(train_idx, config.max_train_samples, config.seed + f);

    const Matrix x_train = take_rows(x, train_idx);
    std::vector<int> y_train;
    y_train.reserve(train_idx.size());
    for (const std::size_t i : train_idx) y_train.push_back(y[i]);

    auto model = factory();
    model->fit(x_train, y_train);

    ConfusionMatrix& cm = result.per_fold.emplace_back();
    for (const std::size_t i : folds[f]) {
      cm.add(model->predict(x.row(i)), y[i]);
    }
  }
  for (const ConfusionMatrix& cm : result.per_fold) result.overall.merge(cm);
  return result;
}

}  // namespace waldo::ml
