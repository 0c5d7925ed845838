#include "waldo/core/model_constructor.hpp"

#include <algorithm>
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
  runtime::StageTimer& timer = runtime::StageTimer::global();

  // Localities from reading locations only.
  ml::Matrix& locations = ws.locations;
  locations.reshape(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    locations(i, 0) = data.positions[i].east_m;
    locations(i, 1) = data.positions[i].north_m;
  }
  ml::KMeansConfig kmc;
  kmc.k = std::max<std::size_t>(1, config_.num_localities);
  kmc.seed = config_.seed;
  const ml::KMeansResult& clusters = ws.clusters;
  {
    const auto timing = timer.scope("model.kmeans", n);
    ml::kmeans_into(locations, kmc, ws.kmeans, ws.clusters);
  }
  const std::size_t k = clusters.centroids.rows();

  const ml::Matrix& features = ws.features;
  {
    const auto timing = timer.scope("model.features", n);
    build_features_into(data, config_.num_features, ws.features);
  }

  // Membership lists per locality (cheap, serial): reading indices
  // grouped by locality, in index order within each, locality c's at
  // members[offsets[c], offsets[c + 1]). One list of n, however the
  // localities split it.
  std::vector<std::size_t>& offsets = ws.member_offsets;
  runtime::resize_reused(offsets, k + 1);
  std::fill(offsets.begin(), offsets.end(), 0);
  for (std::size_t i = 0; i < n; ++i) ++offsets[clusters.assignment[i] + 1];
  for (std::size_t c = 0; c < k; ++c) offsets[c + 1] += offsets[c];
  runtime::resize_reused(ws.members, n);
  for (std::size_t i = 0; i < n; ++i) {
    ws.members[offsets[clusters.assignment[i]]++] = i;
  }
  for (std::size_t c = k; c > 0; --c) offsets[c] = offsets[c - 1];
  offsets[0] = 0;

  // Each lane trains its localities in its own rows and labels, with room
  // for all n readings: k-means is reseeded on every build, so one
  // locality's size can swing up to n from one build to the next.
  const std::size_t lanes = runtime::parallel_lane_count(k, config_.threads);
  if (ws.rows.size() < lanes) {
    ws.rows.resize(lanes);
    ws.labels.resize(lanes);
  }
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    ws.rows[lane].reserve(n * features.cols());
    runtime::reserve_reused(ws.labels[lane], n);
  }

  // Per-locality training — k independent classifiers, the pipeline's
  // dominant cost, fanned out across threads. Each locality's subsample
  // shuffle is seeded from (seed + 1, locality index), so the trained
  // model is a pure function of (config, data, labels): thread counts and
  // scheduling cannot change a single byte of the descriptor.
  const auto timing = timer.scope("model.train", k);
  std::vector<WhiteSpaceModel::Locality> localities(k);
  runtime::parallel_for_lanes(
      k, config_.threads, [&](std::size_t lane, std::size_t c) {
        std::span<const std::size_t> member =
            std::span<const std::size_t>(ws.members)
                .subspan(offsets[c], offsets[c + 1] - offsets[c]);
        WhiteSpaceModel::Locality& loc = localities[c];
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
          return;
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

        ml::Matrix& x = ws.rows[lane];
        features.take_rows_into(member, x);
        std::vector<int>& y = ws.labels[lane];
        y.clear();
        for (const std::size_t i : member) y.push_back(labels[i]);

        std::unique_ptr<ml::Classifier> clf;
        if (config_.classifier == "svm") {
          clf = std::make_unique<ml::Svm>(config_.svm);
        } else {
          clf = make_classifier(config_.classifier);
        }
        clf->fit(x, y);
        loc.classifier = std::move(clf);
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
