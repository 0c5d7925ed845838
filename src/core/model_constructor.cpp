#include "waldo/core/model_constructor.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "waldo/core/features.hpp"
#include "waldo/ml/kmeans.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/runtime/parallel.hpp"
#include "waldo/runtime/seed.hpp"
#include "waldo/runtime/stage_timer.hpp"

namespace waldo::core {

WhiteSpaceModel ModelConstructor::build(const TrainingColumns& data,
                                        std::span<const int> labels) const {
  const std::size_t n = data.size();
  if (n == 0) {
    throw std::invalid_argument("cannot build a model from an empty dataset");
  }
  if (labels.size() != n) {
    throw std::invalid_argument("labels / readings size mismatch");
  }
  runtime::StageTimer& timer = runtime::StageTimer::global();

  // Localities from reading locations only.
  ml::Matrix locations(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    locations(i, 0) = data.positions[i].east_m;
    locations(i, 1) = data.positions[i].north_m;
  }
  ml::KMeansConfig kmc;
  kmc.k = std::max<std::size_t>(1, config_.num_localities);
  kmc.seed = config_.seed;
  kmc.threads = config_.threads;
  ml::KMeansResult clusters;
  {
    const auto timing = timer.scope("model.kmeans", n);
    clusters = ml::kmeans(locations, kmc);
  }
  const std::size_t k = clusters.centroids.rows();

  const ml::Matrix features = [&] {
    const auto timing = timer.scope("model.features", n);
    return build_features(data, config_.num_features);
  }();

  // Membership lists per locality (cheap, serial).
  std::vector<std::vector<std::size_t>> members(k);
  for (std::size_t i = 0; i < n; ++i) {
    members[clusters.assignment[i]].push_back(i);
  }

  // Per-locality training — k independent classifiers, the pipeline's
  // dominant cost, fanned out across threads. Each locality's subsample
  // shuffle is seeded from (seed + 1, locality index), so the trained
  // model is a pure function of (config, data, labels): thread counts and
  // scheduling cannot change a single byte of the descriptor.
  const auto timing = timer.scope("model.train", k);
  std::vector<WhiteSpaceModel::Locality> localities =
      runtime::parallel_map(k, config_.threads, [&](std::size_t c) {
        std::span<const std::size_t> member = members[c];

        WhiteSpaceModel::Locality loc;
        std::size_t safe = 0;
        for (const std::size_t i : member) {
          safe += labels[i] == ml::kSafe ? 1 : 0;
        }

        if (member.empty() || safe == 0 || safe == member.size()) {
          // Binary locality: no classifier to ship. Empty localities
          // default to the conservative "not safe".
          loc.constant = true;
          loc.constant_label = (!member.empty() && safe == member.size())
                                   ? ml::kSafe
                                   : ml::kNotSafe;
          return loc;
        }

        // Only a subsample needs its own copy of the member list.
        std::vector<std::size_t> sampled;
        if (config_.max_train_samples > 0 &&
            member.size() > config_.max_train_samples) {
          sampled.assign(member.begin(), member.end());
          std::mt19937_64 rng(runtime::split_seed(config_.seed + 1, c));
          std::shuffle(sampled.begin(), sampled.end(), rng);
          sampled.resize(config_.max_train_samples);
          member = sampled;
        }

        const ml::Matrix x = features.take_rows(member);
        std::vector<int> y;
        y.reserve(member.size());
        for (const std::size_t i : member) y.push_back(labels[i]);

        std::unique_ptr<ml::Classifier> clf;
        if (config_.classifier == "svm") {
          clf = std::make_unique<ml::Svm>(config_.svm);
        } else {
          clf = make_classifier(config_.classifier);
        }
        clf->fit(x, y);
        loc.classifier = std::move(clf);
        return loc;
      });

  return WhiteSpaceModel(data.channel, config_.num_features,
                         config_.classifier, clusters.centroids,
                         std::move(localities));
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
