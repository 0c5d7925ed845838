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
//    An upload screens against the shard's standing index and extends it
//    under the same exclusive lock, so the lock is held for O(batch) work.
//  - Model rebuilds run OUTSIDE the shard lock, from an immutable dataset
//    snapshot taken under a brief shared lock, and are serialised by a
//    per-shard rebuild mutex so a thundering herd of stale readers builds
//    once. A slow rebuild never blocks downloads of other channels, and
//    blocks this channel's uploads only for the snapshot copy.
//  - A rebuild runs on the request thread that found the model stale:
//    the service builds with ModelConstructorConfig::threads = 1 whatever
//    the caller's config says. A serving rebuild is already one of many
//    concurrent requests, so fanning it out onto the shared pool only
//    oversubscribes the host; serial and parallel builds give the same
//    bytes (docs/CONCURRENCY.md, "The serving layer").
//  - Every upload is stamped with a per-channel apply ticket; replaying
//    recorded batches in ticket order against a single-threaded
//    SpectrumDatabase reproduces the datasets and models byte-for-byte
//    (enforced by tests/test_service.cpp, run under TSan in CI).
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
#include "waldo/core/database.hpp"
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
  std::uint64_t uploads_pending = 0;
  /// Downloads served straight from the descriptor cached inside the
  /// model snapshot (a string copy) vs. downloads that serialized the
  /// model. hits + misses == model_downloads.
  std::uint64_t descriptor_cache_hits = 0;
  std::uint64_t descriptor_cache_misses = 0;
  std::uint64_t bytes_from_cache = 0;  ///< subset of bytes_served
};

/// Thread-safe, per-channel-sharded spectrum store. Runs the same
/// core::ChannelState as SpectrumDatabase (same screening, same
/// rebuild-threshold cache policy) — only the concurrency differs.
class SpectrumService final : public core::SpectrumStore {
 public:
  explicit SpectrumService(core::ModelConstructorConfig constructor_config = {},
                           campaign::LabelingConfig labeling = {},
                           core::UploadPolicy upload_policy = {});
  ~SpectrumService() override;

  SpectrumService(const SpectrumService&) = delete;
  SpectrumService& operator=(const SpectrumService&) = delete;

  /// Offline phase: stores a trusted sweep (appends if the channel exists),
  /// invalidates the cached model and zeroes the staleness counter.
  /// Safe to call concurrently with serving traffic.
  void ingest_campaign(campaign::ChannelDataset dataset);

  [[nodiscard]] bool has_channel(int channel) const override;
  [[nodiscard]] std::vector<int> channels() const;

  /// The channel's current model — cached when fresh, rebuilt serially on
  /// this thread, outside the shard lock, otherwise. The returned snapshot
  /// stays valid (immutable) however long the caller holds it. Throws
  /// std::out_of_range for unknown channels.
  [[nodiscard]] std::shared_ptr<const core::WhiteSpaceModel> model(
      int channel);

  [[nodiscard]] std::string download_model(int channel) override;

  /// Zero-copy variant of download_model: the cached serialized descriptor
  /// as a shared immutable blob (serializing first on a cache miss). The
  /// cluster tier ships these bytes to clients without re-serializing or
  /// copying per request. Counter semantics match download_model exactly.
  /// Throws std::out_of_range for unknown channels.
  [[nodiscard]] std::shared_ptr<const std::string> download_descriptor(
      int channel);

  core::UploadResult upload_measurements(
      int channel, std::span<const campaign::Measurement> readings,
      const std::string& contributor) override;

  /// Copy of the channel's trusted dataset (for replay verification and
  /// offline export). Throws std::out_of_range for unknown channels.
  [[nodiscard]] campaign::ChannelDataset dataset_snapshot(int channel) const;

  /// Copies of every channel's state, each taken under its shard lock —
  /// what a cluster node ships to a recovering replica.
  [[nodiscard]] std::vector<core::ChannelState> channel_states() const;

  /// Replaces (or creates) the state of `state.channel()` and drops the
  /// channel's cached model. Safe to call concurrently with serving
  /// traffic; the caller orders it against uploads to the same channel.
  void install_channel(core::ChannelState state);

  /// Drops every pending reading parked by `contributor`, on all channels.
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
  std::atomic<std::uint64_t> uploads_pending_{0};
  std::atomic<std::uint64_t> descriptor_cache_hits_{0};
  std::atomic<std::uint64_t> descriptor_cache_misses_{0};
  std::atomic<std::uint64_t> bytes_from_cache_{0};
};

}  // namespace waldo::service
