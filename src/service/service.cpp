#include "waldo/service/service.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>

namespace waldo::service {

// Lock order (docs/CONCURRENCY.md): shards_mutex_ -> rebuild_mutex ->
// state_mutex, each optional, never taken upward. state_mutex is never
// held across a model build; rebuild_mutex is never held by readers of a
// fresh cache.
struct SpectrumService::Shard {
  mutable std::shared_mutex state_mutex;

  // All fields below are guarded by state_mutex.
  /// Dataset, pending pool, apply ticket, staleness counter and the
  /// screening index — the same state machine SpectrumDatabase runs.
  core::ChannelState state;
  /// Bumped on every cache-invalidation event (ingest, install, staleness
  /// crossing the rebuild threshold). The cached model is fresh iff
  /// model_generation == generation.
  std::uint64_t generation = 0;
  std::shared_ptr<const core::WhiteSpaceModel> model;
  std::uint64_t model_generation = 0;
  /// Serialized form of `model`, filled lazily by the first download of
  /// each snapshot and reset whenever a new model is published — the
  /// invalidation rule that makes a repeat download a memcpy. Non-null
  /// implies it is the serialization of the current `model`.
  std::shared_ptr<const std::string> descriptor;

  /// Serialises rebuilds of this channel so a thundering herd of stale
  /// readers builds once. Never held while holding state_mutex upward.
  std::mutex rebuild_mutex;
};

SpectrumService::SpectrumService(
    core::ModelConstructorConfig constructor_config,
    campaign::LabelingConfig labeling, core::UploadPolicy upload_policy)
    : constructor_config_(std::move(constructor_config)),
      labeling_(labeling),
      upload_policy_(upload_policy) {
  // Rebuilds run on the request thread that found the model stale (see
  // service.hpp); serial and parallel builds give the same bytes.
  constructor_config_.threads = 1;
}

SpectrumService::~SpectrumService() = default;

SpectrumService::Shard* SpectrumService::find_shard(
    int channel) const noexcept {
  const std::shared_lock lock(shards_mutex_);
  const auto it = shards_.find(channel);
  return it == shards_.end() ? nullptr : it->second.get();
}

SpectrumService::Shard& SpectrumService::shard(int channel) const {
  Shard* s = find_shard(channel);
  if (s == nullptr) {
    throw std::out_of_range("no data for channel " + std::to_string(channel));
  }
  return *s;
}

SpectrumService::Shard& SpectrumService::shard_or_create(int channel) {
  const std::unique_lock lock(shards_mutex_);
  auto& slot = shards_[channel];
  if (!slot) slot = std::make_unique<Shard>();
  return *slot;
}

void SpectrumService::ingest_campaign(campaign::ChannelDataset dataset) {
  if (dataset.readings.empty()) {
    throw std::invalid_argument("refusing to ingest an empty campaign");
  }
  Shard& s = shard_or_create(dataset.channel);
  const std::unique_lock lock(s.state_mutex);
  s.state.ingest(std::move(dataset));
  ++s.generation;  // cached model (if any) is now stale
}

void SpectrumService::install_channel(core::ChannelState state) {
  Shard& s = shard_or_create(state.channel());
  const std::unique_lock lock(s.state_mutex);
  s.state = std::move(state);
  ++s.generation;  // the cached model described the replaced state
}

std::vector<core::ChannelState> SpectrumService::channel_states() const {
  std::vector<Shard*> all;
  {
    const std::shared_lock lock(shards_mutex_);
    for (const auto& [ch, s] : shards_) all.push_back(s.get());
  }
  std::vector<core::ChannelState> out;
  out.reserve(all.size());
  for (const Shard* s : all) {
    const std::shared_lock lock(s->state_mutex);
    out.push_back(s->state);
  }
  return out;
}

bool SpectrumService::has_channel(int channel) const {
  return find_shard(channel) != nullptr;
}

std::vector<int> SpectrumService::channels() const {
  const std::shared_lock lock(shards_mutex_);
  std::vector<int> out;
  out.reserve(shards_.size());
  for (const auto& [ch, _] : shards_) out.push_back(ch);
  return out;
}

std::shared_ptr<const core::WhiteSpaceModel> SpectrumService::model(
    int channel) {
  Shard& s = shard(channel);
  {
    const std::shared_lock lock(s.state_mutex);
    if (s.model && s.model_generation == s.generation) return s.model;
  }

  // Stale (or absent): rebuild, serialised per channel. Concurrent readers
  // of other channels are untouched; late arrivals for this channel queue
  // on rebuild_mutex and reuse the freshly published model.
  const std::lock_guard rebuild(s.rebuild_mutex);
  campaign::ChannelDataset snapshot;
  std::uint64_t built_from = 0;
  {
    const std::shared_lock lock(s.state_mutex);
    if (s.model && s.model_generation == s.generation) return s.model;
    snapshot = s.state.dataset();  // uploads wait only for this copy
    built_from = s.generation;
  }
  const core::ModelConstructor constructor(constructor_config_);
  auto built = std::make_shared<const core::WhiteSpaceModel>(
      constructor.build_with_labeling(snapshot, labeling_));
  models_built_.fetch_add(1, std::memory_order_relaxed);

  const std::unique_lock lock(s.state_mutex);
  s.model = built;
  s.model_generation = built_from;
  s.descriptor.reset();  // cached bytes described the previous snapshot
  if (built_from == s.generation) s.state.model_built();
  // If the dataset moved on mid-build the published model is already
  // stale (model_generation < generation) and the next reader rebuilds;
  // the returned snapshot is still a consistent point-in-time model.
  return built;
}

std::shared_ptr<const std::string> SpectrumService::download_descriptor(
    int channel) {
  Shard& s = shard(channel);
  {
    // Fast path: a fresh model whose descriptor is already serialized —
    // the download shares the cached bytes without copying them.
    const std::shared_lock lock(s.state_mutex);
    if (s.descriptor && s.model && s.model_generation == s.generation) {
      std::shared_ptr<const std::string> cached = s.descriptor;
      descriptor_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      bytes_from_cache_.fetch_add(cached->size(), std::memory_order_relaxed);
      model_downloads_.fetch_add(1, std::memory_order_relaxed);
      bytes_served_.fetch_add(cached->size(), std::memory_order_relaxed);
      return cached;
    }
  }

  // Miss: fetch the current snapshot (rebuilding if stale), serialize it
  // outside every lock, and publish the bytes only if that exact snapshot
  // is still the one installed — binary serialization is deterministic,
  // so racing misses publish identical bytes either way.
  descriptor_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  const std::shared_ptr<const core::WhiteSpaceModel> m = model(channel);
  auto fresh = std::make_shared<const std::string>(m->serialize());
  {
    const std::unique_lock lock(s.state_mutex);
    if (s.model == m) s.descriptor = fresh;
  }
  model_downloads_.fetch_add(1, std::memory_order_relaxed);
  bytes_served_.fetch_add(fresh->size(), std::memory_order_relaxed);
  return fresh;
}

std::string SpectrumService::download_model(int channel) {
  return *download_descriptor(channel);
}

core::UploadResult SpectrumService::upload_measurements(
    int channel, std::span<const campaign::Measurement> readings,
    const std::string& contributor) {
  Shard* s = find_shard(channel);
  if (s == nullptr) {
    throw std::out_of_range(
        "uploads require a bootstrapped channel (trusted campaign first)");
  }
  core::UploadResult result;
  {
    const std::unique_lock lock(s->state_mutex);
    const core::ChannelState::Applied applied =
        s->state.upload(upload_policy_, readings, contributor);
    if (applied.model_stale) ++s->generation;  // invalidate the cached model
    result = applied.ledger;
  }
  uploads_accepted_.fetch_add(result.accepted, std::memory_order_relaxed);
  uploads_rejected_.fetch_add(result.rejected, std::memory_order_relaxed);
  uploads_pending_.fetch_add(result.pending, std::memory_order_relaxed);
  return result;
}

campaign::ChannelDataset SpectrumService::dataset_snapshot(
    int channel) const {
  Shard& s = shard(channel);
  const std::shared_lock lock(s.state_mutex);
  return s.state.dataset();
}

std::size_t SpectrumService::purge_pending(const std::string& contributor) {
  std::vector<Shard*> all;
  {
    const std::shared_lock lock(shards_mutex_);
    all.reserve(shards_.size());
    for (const auto& [ch, s] : shards_) all.push_back(s.get());
  }
  std::size_t purged = 0;
  for (Shard* s : all) {
    const std::unique_lock lock(s->state_mutex);
    purged += s->state.purge_pending(contributor);
  }
  return purged;
}

std::size_t SpectrumService::pending_count(int channel) const {
  Shard* s = find_shard(channel);
  if (s == nullptr) return 0;
  const std::shared_lock lock(s->state_mutex);
  return s->state.pending().size();
}

std::uint64_t SpectrumService::uploads_applied(int channel) const {
  Shard* s = find_shard(channel);
  if (s == nullptr) return 0;
  const std::shared_lock lock(s->state_mutex);
  return s->state.uploads_applied();
}

std::size_t SpectrumService::staleness(int channel) const {
  Shard* s = find_shard(channel);
  if (s == nullptr) return 0;
  const std::shared_lock lock(s->state_mutex);
  return s->state.staleness();
}

ServiceCounters SpectrumService::counters() const {
  ServiceCounters out;
  out.models_built = models_built_.load(std::memory_order_relaxed);
  out.model_downloads = model_downloads_.load(std::memory_order_relaxed);
  out.bytes_served = bytes_served_.load(std::memory_order_relaxed);
  out.uploads_accepted = uploads_accepted_.load(std::memory_order_relaxed);
  out.uploads_rejected = uploads_rejected_.load(std::memory_order_relaxed);
  out.uploads_pending = uploads_pending_.load(std::memory_order_relaxed);
  out.descriptor_cache_hits =
      descriptor_cache_hits_.load(std::memory_order_relaxed);
  out.descriptor_cache_misses =
      descriptor_cache_misses_.load(std::memory_order_relaxed);
  out.bytes_from_cache = bytes_from_cache_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace waldo::service
