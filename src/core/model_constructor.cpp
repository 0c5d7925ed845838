#include "waldo/core/model_constructor.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <random>
#include <stdexcept>

#include "waldo/core/features.hpp"
#include "waldo/ml/kmeans.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/runtime/parallel.hpp"
#include "waldo/runtime/reuse.hpp"
#include "waldo/runtime/seed.hpp"
#include "waldo/runtime/stage_timer.hpp"

namespace waldo::core {

BuildWorkspace& ModelConstructor::thread_workspace() {
  thread_local BuildWorkspace ws;
  return ws;
}

WhiteSpaceModel ModelConstructor::build(const TrainingColumns& data,
                                        std::span<const int> labels) const {
  return build(data, labels, thread_workspace());
}

WhiteSpaceModel ModelConstructor::build(const TrainingColumns& data,
                                        std::span<const int> labels,
                                        BuildWorkspace& ws) const {
  const std::size_t n = data.size();
  if (n == 0) {
    throw std::invalid_argument("cannot build a model from an empty dataset");
  }
  if (labels.size() != n) {
    throw std::invalid_argument("labels / readings size mismatch");
  }
  const int num_features = config_.num_features;
  check_training_columns(data, num_features);
  runtime::StageTimer& timer = runtime::StageTimer::global();

  // Pass 1: localities from reading locations only, read in place.
  static_assert(offsetof(geo::EnuPoint, north_m) == sizeof(double));
  ml::KMeansConfig kmc;
  kmc.k = std::max<std::size_t>(1, config_.num_localities);
  kmc.seed = config_.seed;
  const ml::KMeansResult& clusters = ws.clusters;
  {
    const auto timing = timer.scope("model.kmeans", n);
    ml::kmeans_into(ml::PlanePoints{&data.positions[0].east_m, n,
                                    sizeof(geo::EnuPoint)},
                    kmc, ws.kmeans, ws.clusters);
  }
  const std::size_t k = clusters.centroids.rows();

  // Pass 2: each reading's feature row and label go to its locality's
  // block, in reading order: locality c's are rows [bounds[c],
  // bounds[c + 1]) of ws.rows and ws.labels. bounds[c + 1] starts at
  // locality c's first row and, as its write cursor, ends past its last.
  std::vector<std::size_t>& bounds = ws.bounds;
  runtime::resize_reused(bounds, k + 1);
  bounds[0] = 0;
  bounds[1] = 0;
  for (std::size_t c = 1; c < k; ++c) {
    bounds[c + 1] = bounds[c] + clusters.counts[c - 1];
  }
  std::vector<std::size_t>& safe = ws.safe;
  runtime::resize_reused(safe, k);
  std::fill(safe.begin(), safe.end(), 0);
  const std::size_t cols = feature_columns(num_features);
  ml::Matrix& rows = ws.rows;
  rows.reshape(n, cols);
  runtime::resize_reused(ws.labels, n);
  {
    const auto timing = timer.scope("model.scatter", n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = clusters.assignment[i];
      const std::size_t at = bounds[c + 1]++;
      write_feature_row(data, i, num_features, rows.row_ptr(at));
      ws.labels[at] = labels[i];
      safe[c] += labels[i] == ml::kSafe ? 1 : 0;
    }
  }

  // Pass 3: per-locality training — k independent classifiers, the
  // pipeline's dominant cost, fanned out across threads, each reading only
  // its own block. Each locality's subsample shuffle is seeded from
  // (seed + 1, locality index), so the trained model is a pure function of
  // (config, data, labels): thread counts and scheduling cannot change a
  // single byte of the descriptor.
  const auto timing = timer.scope("model.train", k);
  std::vector<WhiteSpaceModel::Locality> localities(k);
  runtime::parallel_for_lanes(
      k, config_.threads, [&](std::size_t /*lane*/, std::size_t c) {
        const std::size_t first = bounds[c];
        const std::size_t size = bounds[c + 1] - first;
        WhiteSpaceModel::Locality& loc = localities[c];
        if (size == 0 || safe[c] == 0 || safe[c] == size) {
          // Binary locality: no classifier to ship. Empty localities
          // default to the conservative "not safe".
          loc.constant = true;
          loc.constant_label =
              (size > 0 && safe[c] == size) ? ml::kSafe : ml::kNotSafe;
          return;
        }

        std::unique_ptr<ml::Classifier> clf;
        if (config_.classifier == "svm") {
          clf = std::make_unique<ml::Svm>(config_.svm);
        } else {
          clf = make_classifier(config_.classifier);
        }
        const ml::MatrixView x(rows.row_ptr(first), size, cols);
        const std::span<const int> y =
            std::span<const int>(ws.labels).subspan(first, size);
        if (config_.max_train_samples > 0 &&
            size > config_.max_train_samples) {
          // The first max_train_samples of a shuffle of the block's rows,
          // which are in reading order.
          std::vector<std::size_t> sampled(size);
          std::iota(sampled.begin(), sampled.end(), std::size_t{0});
          std::mt19937_64 rng(runtime::split_seed(config_.seed + 1, c));
          std::shuffle(sampled.begin(), sampled.end(), rng);
          sampled.resize(config_.max_train_samples);
          std::vector<int> sampled_labels(sampled.size());
          for (std::size_t s = 0; s < sampled.size(); ++s) {
            sampled_labels[s] = y[sampled[s]];
          }
          clf->fit(ml::take_rows(x, sampled), sampled_labels);
        } else {
          clf->fit(x, y);
        }
        loc.classifier = std::move(clf);
      });

  return WhiteSpaceModel(data.channel, num_features, config_.classifier,
                         clusters.centroids, std::move(localities));
}

WhiteSpaceModel ModelConstructor::build(const campaign::ChannelDataset& data,
                                        std::span<const int> labels) const {
  return build(training_columns(data, config_.num_features), labels);
}

WhiteSpaceModel ModelConstructor::build_with_labeling(
    const campaign::ChannelDataset& data,
    const campaign::LabelingConfig& labeling) const {
  const TrainingColumns columns = training_columns(data, config_.num_features);
  return build(columns, campaign::label_readings(columns.positions,
                                                 columns.rss_dbm, labeling));
}

}  // namespace waldo::core
