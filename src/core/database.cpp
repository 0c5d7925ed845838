#include "waldo/core/database.hpp"

#include <stdexcept>
#include <utility>

namespace waldo::core {

SpectrumDatabase::SpectrumDatabase(ModelConstructorConfig constructor_config,
                                   campaign::LabelingConfig labeling,
                                   UploadPolicy upload_policy)
    : constructor_config_(std::move(constructor_config)),
      labeling_(labeling),
      upload_policy_(upload_policy) {}

void SpectrumDatabase::ingest_campaign(campaign::ChannelDataset dataset) {
  if (dataset.readings.empty()) {
    throw std::invalid_argument("refusing to ingest an empty campaign");
  }
  const int channel = dataset.channel;
  channels_[channel].ingest(std::move(dataset));
  model_cache_.erase(channel);
  descriptor_cache_.erase(channel);
}

bool SpectrumDatabase::has_channel(int channel) const noexcept {
  return channels_.contains(channel);
}

std::vector<int> SpectrumDatabase::channels() const {
  std::vector<int> out;
  out.reserve(channels_.size());
  for (const auto& [ch, _] : channels_) out.push_back(ch);
  return out;
}

const campaign::ChannelDataset& SpectrumDatabase::dataset(int channel) const {
  return channel_state(channel).dataset();
}

const ChannelState& SpectrumDatabase::channel_state(int channel) const {
  const auto it = channels_.find(channel);
  if (it == channels_.end()) {
    throw std::out_of_range("no data for channel " + std::to_string(channel));
  }
  return it->second;
}

std::vector<int> SpectrumDatabase::labels(int channel) const {
  const campaign::ChannelDataset& ds = dataset(channel);
  return campaign::label_readings(ds.positions(), ds.rss_values(), labeling_);
}

const WhiteSpaceModel& SpectrumDatabase::model(int channel) {
  auto it = model_cache_.find(channel);
  if (it != model_cache_.end()) return it->second;
  const ModelConstructor constructor(constructor_config_);
  WhiteSpaceModel m =
      constructor.build_with_labeling(dataset(channel), labeling_);
  ++stats_.models_built;
  // The fresh build folds in every accepted reading: nothing is stale.
  channels_.at(channel).model_built();
  return model_cache_.emplace(channel, std::move(m)).first->second;
}

std::string SpectrumDatabase::download_model(int channel) {
  // Serve the serialized descriptor cached alongside the model: a repeat
  // download is a string copy, not a re-serialization. `model(channel)`
  // (re)builds on demand, and both caches are erased together, so a live
  // descriptor_cache_ entry always matches the cached model.
  auto it = descriptor_cache_.find(channel);
  if (it == descriptor_cache_.end() || !model_cache_.contains(channel)) {
    ++stats_.descriptor_cache_misses;
    it = descriptor_cache_
             .insert_or_assign(channel, model(channel).serialize())
             .first;
  } else {
    ++stats_.descriptor_cache_hits;
    stats_.bytes_from_cache += it->second.size();
  }
  ++stats_.model_downloads;
  stats_.bytes_served += it->second.size();
  return it->second;
}

SpectrumDatabase::UploadResult SpectrumDatabase::upload_measurements(
    int channel, std::span<const campaign::Measurement> readings,
    const std::string& contributor) {
  auto it = channels_.find(channel);
  if (it == channels_.end()) {
    throw std::out_of_range(
        "uploads require a bootstrapped channel (trusted campaign first)");
  }
  const ChannelState::Applied applied =
      it->second.upload(upload_policy_, readings, contributor);
  if (applied.model_stale) {
    model_cache_.erase(channel);
    descriptor_cache_.erase(channel);
  }
  stats_.uploads_accepted += applied.ledger.accepted;
  stats_.uploads_rejected += applied.ledger.rejected;
  return applied.ledger;
}

std::size_t SpectrumDatabase::purge_pending(const std::string& contributor) {
  std::size_t purged = 0;
  for (auto& [channel, state] : channels_) {
    purged += state.purge_pending(contributor);
  }
  return purged;
}

std::size_t SpectrumDatabase::pending_count(int channel) const noexcept {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? 0 : it->second.pending().size();
}

std::size_t SpectrumDatabase::staleness(int channel) const noexcept {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? 0 : it->second.staleness();
}

}  // namespace waldo::core
