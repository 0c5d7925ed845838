// The Model Constructor (Section 3.2): centrally labels a campaign dataset
// with Algorithm 1, identifies localities with k-means over reading
// locations, and trains one compact classifier per locality — collapsing
// single-class localities to constant labels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/measurement.hpp"
#include "waldo/core/features.hpp"
#include "waldo/core/model.hpp"
#include "waldo/ml/kmeans.hpp"
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
  /// 1 = serial). The k per-locality classifiers train concurrently;
  /// k-means runs serially on the calling thread. Per-locality randomness
  /// (the max_train_samples subsample) is seeded from (seed + 1, locality
  /// index), so the serialized model is byte-identical for every thread
  /// count. See docs/CONCURRENCY.md.
  unsigned threads = 0;
};

/// Storage a build reuses from one call to the next: the training columns
/// a caller snapshots into, the k-means scratch and result, and one block
/// of feature rows and labels grouped by locality. Every buffer keeps its
/// storage between builds and grows geometrically, so once a workspace has
/// built a channel, builds of that channel grown by a few readings
/// allocate nothing that grows with it (the classifier's own fit aside).
/// Serial or not, with 2 features, it holds about 68 B a reading: the
/// columns 24, the k-means assignment 8 and seeding distances 8, the
/// block's rows 24 and labels 4.
struct BuildWorkspace {
  /// For the caller's snapshot; build() reads it as its input only.
  TrainingColumns columns;
  ml::KMeansScratch kmeans;
  ml::KMeansResult clusters;
  /// Every reading's feature row and label, grouped by locality: locality
  /// c's are rows [bounds[c], bounds[c + 1]), in reading order.
  ml::Matrix rows;
  std::vector<int> labels;
  std::vector<std::size_t> bounds;
  /// Safe labels in each locality.
  std::vector<std::size_t> safe;
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
  /// `data.positions`, in the calling thread's workspace. The one build
  /// path: the dataset forms below copy the columns out and call it.
  [[nodiscard]] WhiteSpaceModel build(const TrainingColumns& data,
                                      std::span<const int> labels) const;

  /// The same build in `ws`'s buffers. `data` may be ws.columns. Per-
  /// locality training on other threads (config threads > 1) only reads
  /// its own locality's rows and labels.
  [[nodiscard]] WhiteSpaceModel build(const TrainingColumns& data,
                                      std::span<const int> labels,
                                      BuildWorkspace& ws) const;

  /// The calling thread's workspace. Its buffers belong to the thread
  /// that builds, not to a channel, so the memory they hold grows with
  /// the number of threads building at once, each sized to the largest
  /// channel it has built.
  [[nodiscard]] static BuildWorkspace& thread_workspace();

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
