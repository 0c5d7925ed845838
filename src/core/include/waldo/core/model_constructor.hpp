// The Model Constructor (Section 3.2): centrally labels a campaign dataset
// with Algorithm 1, identifies localities with k-means over reading
// locations, and trains one compact classifier per locality — collapsing
// single-class localities to constant labels.
#pragma once

#include <cstdint>
#include <string>

#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/measurement.hpp"
#include "waldo/core/features.hpp"
#include "waldo/core/model.hpp"
#include "waldo/ml/svm.hpp"

namespace waldo::core {

struct ModelConstructorConfig {
  /// Number of localities (paper evaluates k in {1, 3, 5}; 1 disables
  /// clustering).
  std::size_t num_localities = 3;
  /// Classifier family for non-constant localities.
  std::string classifier = "svm";
  /// Paper's feature axis: 1 = location only ... 4 = + AFT.
  int num_features = 3;
  /// Optional per-locality training-row cap (0 = no cap); evaluation-cost
  /// knob for wide sweeps, never applied at prediction time.
  std::size_t max_train_samples = 0;
  /// SVM hyperparameters when classifier == "svm".
  ml::SvmConfig svm;
  std::uint64_t seed = 23;
  /// Worker threads for model construction (0 = all hardware threads,
  /// 1 = serial). The k per-locality classifiers train concurrently and
  /// the k-means assignment step fans out in blocks of readings.
  /// Per-locality randomness (the max_train_samples subsample) is seeded
  /// from (seed + 1, locality index), so the serialized model is
  /// byte-identical for every thread count. See docs/CONCURRENCY.md.
  unsigned threads = 0;
};

class ModelConstructor {
 public:
  explicit ModelConstructor(ModelConstructorConfig config = {})
      : config_(std::move(config)) {}

  [[nodiscard]] const ModelConstructorConfig& config() const noexcept {
    return config_;
  }

  /// Builds a model from training columns (core::training_columns of
  /// this config's num_features) and their Algorithm 1 labels, parallel to
  /// `data.positions`. The one build path: the dataset forms below copy
  /// the columns out and call it.
  [[nodiscard]] WhiteSpaceModel build(const TrainingColumns& data,
                                      std::span<const int> labels) const;

  /// Builds a model from a dataset and its Algorithm 1 labels (parallel to
  /// `data.readings`).
  [[nodiscard]] WhiteSpaceModel build(const campaign::ChannelDataset& data,
                                      std::span<const int> labels) const;

  /// Convenience: labels the dataset with Algorithm 1, then builds.
  [[nodiscard]] WhiteSpaceModel build_with_labeling(
      const campaign::ChannelDataset& data,
      const campaign::LabelingConfig& labeling = {}) const;

 private:
  ModelConstructorConfig config_;
};

}  // namespace waldo::core
