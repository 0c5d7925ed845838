// waldo::service — the always-on serving layer of the central spectrum
// database. The paper's deployment model (Section 3) is one repository
// absorbing crowd-sourced uploads from many mobile WSDs while serving
// model downloads to many more; SpectrumService makes that concurrent:
//
//  - State is sharded per TV channel. Each shard owns a core::ChannelState
//    (dataset, pending-corroboration pool, apply ticket, staleness counter,
//    screening index) and the model cache behind its own
//    std::shared_mutex, so downloads are concurrent readers and uploads are
//    per-channel writers — traffic on channel 15 never waits on channel 46.
//  - An upload runs in two steps (core::ChannelState::screen, then
//    apply). The screen gathers each reading's neighbourhood from the
//    shard's standing index and takes its median under the shared lock,
//    beside downloads and rebuild snapshots; the apply settles the batch
//    against the pending pool and appends it under the unique lock, which
//    is all that readers of the channel wait for. A per-shard
//    upload_mutex, held from screen to apply and taken by ingests and
//    installs too, keeps any other append from landing in between, so
//    the verdicts are those of one indivisible upload.
//  - A channel stores only what the model reads: position, RSS, CFT and
//    AFT, by column (core::ChannelState, 40 B a reading). A Measurement
//    handed in by ingest_campaign or upload_measurements keeps those four
//    fields; one handed back by dataset_snapshot reports 0 in raw and
//    true_rss_dbm and carries no I/Q, since the store keeps none of them.
//  - Model rebuilds run OUTSIDE the shard lock and are serialised by a
//    per-shard rebuild mutex so a thundering herd of stale readers builds
//    once. The shared lock covers only a copy of the columns the build
//    reads (positions and RSS, plus CFT/AFT when the feature count uses
//    them); labeling, k-means, training and serialization run after it is
//    released. A slow rebuild never blocks downloads of other channels,
//    and blocks this channel's uploads only for that column copy.
//  - The copy and every buffer of the build that grows with the channel
//    live in the rebuilding thread's core::BuildWorkspace, which keeps
//    them from one rebuild to the next: a rebuild of a channel grown by a
//    few readings allocates nothing that grows with it. The buffers
//    belong to the thread, not the shard, so their memory grows with the
//    number of threads rebuilding at once, not with the number of
//    channels.
//  - A rebuild labels only what changed: each shard keeps the Algorithm 1
//    labels of its last rebuild, under the rebuild mutex, and the next
//    rebuild extends them by the readings appended since
//    (campaign::extend_labels). install_channel, which replaces the
//    dataset instead of appending to it, makes the next rebuild relabel
//    from scratch. Uploads do no labeling.
//  - A rebuild runs on the request thread that found the model stale:
//    the service builds with ModelConstructorConfig::threads = 1 whatever
//    the caller's config says. A serving rebuild is already one of many
//    concurrent requests, so fanning it out onto the shared pool only
//    oversubscribes the host; serial and parallel builds give the same
//    bytes (docs/CONCURRENCY.md, "The serving layer").
//  - Every upload is stamped with a per-channel apply ticket; replaying
//    recorded batches in ticket order through bare core::ChannelStates
//    and a serial ModelConstructor reproduces the datasets and models
//    byte-for-byte (enforced by tests/test_service.cpp, run under TSan in
//    CI).
//
// This is Waldo's only spectrum store: the offline benches, the examples,
// the SecureUpdater reputation defence and the cluster tier all run on it,
// so every model built through a store is built serially.
//
// Full locking protocol: docs/CONCURRENCY.md, "The serving layer".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/measurement.hpp"
#include "waldo/core/channel_state.hpp"
#include "waldo/core/model.hpp"
#include "waldo/core/model_constructor.hpp"

namespace waldo::service {

/// Monotonic service-wide traffic counters (snapshot of atomics).
struct ServiceCounters {
  std::uint64_t models_built = 0;  ///< rebuilds, over all channels
  std::uint64_t model_downloads = 0;
  std::uint64_t bytes_served = 0;  ///< descriptor bytes
  std::uint64_t uploads_accepted = 0;
  std::uint64_t uploads_rejected = 0;
  /// Downloads served from the shard's cached descriptor bytes, which
  /// download_descriptor shares without copying, vs. downloads that
  /// serialized the model. hits + misses == model_downloads.
  std::uint64_t descriptor_cache_hits = 0;
  std::uint64_t descriptor_cache_misses = 0;
  std::uint64_t bytes_from_cache = 0;  ///< subset of bytes_served
};

/// Thread-safe, per-channel-sharded spectrum store: one core::ChannelState
/// (screening, pending pool, rebuild-threshold cache policy) per channel.
class SpectrumService {
 public:
  explicit SpectrumService(core::ModelConstructorConfig constructor_config = {},
                           campaign::LabelingConfig labeling = {},
                           core::UploadPolicy upload_policy = {});
  ~SpectrumService();

  SpectrumService(const SpectrumService&) = delete;
  SpectrumService& operator=(const SpectrumService&) = delete;

  /// Offline phase: stores a trusted sweep's columns (appends if the
  /// channel exists), invalidates the cached model and zeroes the
  /// staleness counter. Safe to call concurrently with serving traffic.
  void ingest_campaign(const campaign::ChannelDataset& dataset);

  [[nodiscard]] bool has_channel(int channel) const;
  [[nodiscard]] std::vector<int> channels() const;

  /// The channel's current model — cached when fresh, rebuilt serially on
  /// this thread, outside the shard lock, otherwise. The returned snapshot
  /// stays valid (immutable) however long the caller holds it. Throws
  /// std::out_of_range for unknown channels.
  [[nodiscard]] std::shared_ptr<const core::WhiteSpaceModel> model(
      int channel);

  /// Serialized model descriptor — what a WSD's Local Model Parameters
  /// Updater downloads. Throws std::out_of_range for unknown channels.
  [[nodiscard]] std::string download_model(int channel);

  /// Zero-copy variant of download_model: the cached serialized descriptor
  /// as a shared immutable blob (serializing first on a cache miss). The
  /// cluster tier ships these bytes to clients without re-serializing or
  /// copying per request. Counter semantics match download_model exactly.
  /// Throws std::out_of_range for unknown channels.
  [[nodiscard]] std::shared_ptr<const std::string> download_descriptor(
      int channel);

  /// Online phase, Global Model Updater: screens and applies a device's
  /// measurements. `contributor` identifies the uploader for the
  /// corroboration rule (pending readings are promoted only by *other*
  /// contributors). Throws std::out_of_range for unknown channels.
  core::UploadResult upload_measurements(
      int channel, std::span<const campaign::Measurement> readings,
      const std::string& contributor);

  /// Copy of the channel's trusted dataset (for replay verification and
  /// offline export), as stored: every reading's raw and true_rss_dbm are
  /// 0 and its I/Q is empty. Throws std::out_of_range for unknown
  /// channels.
  [[nodiscard]] campaign::ChannelDataset dataset_snapshot(int channel) const;

  /// Copies of every channel's state, each taken under its shard lock —
  /// what a cluster node ships to a recovering replica.
  [[nodiscard]] std::vector<core::ChannelState> channel_states() const;

  /// Replaces (or creates) the state of `state.channel()` and drops the
  /// channel's cached model. Safe to call concurrently with serving
  /// traffic; the caller orders it against uploads to the same channel.
  void install_channel(core::ChannelState state);

  /// Drops every pending reading parked by `contributor`, on all channels;
  /// returns how many were purged. SecureUpdater calls this at quarantine
  /// time so a quarantined identity's stash is never promoted later.
  std::size_t purge_pending(const std::string& contributor);

  [[nodiscard]] std::size_t pending_count(int channel) const;
  [[nodiscard]] std::size_t staleness(int channel) const;

  /// Next apply ticket the channel will assign == number of uploads
  /// applied so far (0 for unknown channels). Replication uses this to
  /// know which replicated entries a replica has already applied.
  [[nodiscard]] std::uint64_t uploads_applied(int channel) const;

  [[nodiscard]] ServiceCounters counters() const;

 private:
  struct Shard;

  /// Shard lookup (shared map lock). Throws std::out_of_range when the
  /// channel was never bootstrapped; nullptr-tolerant variant for the
  /// noexcept-style queries.
  [[nodiscard]] Shard& shard(int channel) const;
  [[nodiscard]] Shard* find_shard(int channel) const noexcept;
  [[nodiscard]] Shard& shard_or_create(int channel);

  core::ModelConstructorConfig constructor_config_;
  campaign::LabelingConfig labeling_;
  core::UploadPolicy upload_policy_;

  /// Guards the channel → shard map only; shard *contents* are guarded by
  /// each shard's own mutexes. Shards are never removed, so a looked-up
  /// pointer stays valid for the service's lifetime.
  mutable std::shared_mutex shards_mutex_;
  std::map<int, std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> models_built_{0};
  std::atomic<std::uint64_t> model_downloads_{0};
  std::atomic<std::uint64_t> bytes_served_{0};
  std::atomic<std::uint64_t> uploads_accepted_{0};
  std::atomic<std::uint64_t> uploads_rejected_{0};
  std::atomic<std::uint64_t> descriptor_cache_hits_{0};
  std::atomic<std::uint64_t> descriptor_cache_misses_{0};
  std::atomic<std::uint64_t> bytes_from_cache_{0};
};

}  // namespace waldo::service
