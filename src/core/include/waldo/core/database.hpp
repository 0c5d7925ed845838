// Waldo's central spectrum database (Sections 3.1 and 3.4). The offline
// phase ingests trusted campaign data and constructs per-channel models;
// the online phase serves compact model descriptors to devices and accepts
// crowd-sourced measurement uploads, sanity-checked by correlating each
// upload against nearby stored readings (the defence of [26]).
//
// SpectrumDatabase is the single-threaded reference implementation of the
// SpectrumStore surface; service::SpectrumService (src/service) is the
// thread-safe per-channel-sharded serving layer. Both keep each channel in
// a core::ChannelState (channel_state.hpp), so they accept exactly the
// same readings given the same per-channel request order.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/measurement.hpp"
#include "waldo/core/channel_state.hpp"
#include "waldo/core/model.hpp"
#include "waldo/core/model_constructor.hpp"

namespace waldo::core {

struct DatabaseStats {
  std::size_t models_built = 0;
  std::size_t model_downloads = 0;
  std::size_t bytes_served = 0;
  std::size_t uploads_accepted = 0;
  std::size_t uploads_rejected = 0;
  /// Downloads answered from the cached serialized descriptor (no
  /// re-serialization) vs. downloads that had to serialize the model.
  /// The cache is invalidated together with the model cache.
  std::size_t descriptor_cache_hits = 0;
  std::size_t descriptor_cache_misses = 0;
  /// Bytes of `bytes_served` that came straight from the cache.
  std::size_t bytes_from_cache = 0;
};

/// The store surface the WSNP ProtocolServer serves from. Thread safety is
/// the implementor's contract: ProtocolServer::handle is reentrant exactly
/// when the store behind it is (SpectrumDatabase is single-threaded;
/// service::SpectrumService is safe for arbitrary concurrent callers).
class SpectrumStore {
 public:
  virtual ~SpectrumStore() = default;

  [[nodiscard]] virtual bool has_channel(int channel) const = 0;

  /// Serialized model descriptor — what a WSD's Local Model Parameters
  /// Updater downloads. Implementations account traffic in their stats.
  [[nodiscard]] virtual std::string download_model(int channel) = 0;

  /// Online phase, Global Model Updater: submits device measurements.
  /// `contributor` identifies the uploading device for the corroboration
  /// rule (pending readings are promoted only by *other* contributors).
  virtual UploadResult upload_measurements(
      int channel, std::span<const campaign::Measurement> readings,
      const std::string& contributor) = 0;
};

class SpectrumDatabase : public SpectrumStore {
 public:
  using UploadResult = core::UploadResult;

  explicit SpectrumDatabase(ModelConstructorConfig constructor_config = {},
                            campaign::LabelingConfig labeling = {},
                            UploadPolicy upload_policy = {});

  /// Offline phase: stores a trusted campaign sweep for its channel
  /// (appends if the channel already has data), invalidates any cached
  /// model and zeroes the staleness counter (the next build sees
  /// everything, so nothing is "accepted since build" any more).
  void ingest_campaign(campaign::ChannelDataset dataset);

  [[nodiscard]] bool has_channel(int channel) const noexcept override;
  [[nodiscard]] std::vector<int> channels() const;
  [[nodiscard]] const campaign::ChannelDataset& dataset(int channel) const;
  /// The channel's full state: dataset, pending pool, tickets, staleness.
  /// Throws std::out_of_range for unknown channels.
  [[nodiscard]] const ChannelState& channel_state(int channel) const;

  /// Algorithm 1 labels of the stored dataset (computed fresh).
  [[nodiscard]] std::vector<int> labels(int channel) const;

  /// Builds (or returns the cached) detection model for a channel. A
  /// rebuild folds in every accepted reading, so it resets the channel's
  /// staleness counter.
  [[nodiscard]] const WhiteSpaceModel& model(int channel);

  [[nodiscard]] std::string download_model(int channel) override;

  UploadResult upload_measurements(
      int channel, std::span<const campaign::Measurement> readings,
      const std::string& contributor = "anonymous") override;

  /// Drops every pending (not-yet-corroborated) reading parked by
  /// `contributor`, on all channels; returns how many were purged.
  /// SecureUpdater calls this at quarantine time so a quarantined
  /// identity's stash can never be promoted by later corroboration.
  std::size_t purge_pending(const std::string& contributor);

  /// Readings currently awaiting corroboration on a channel.
  [[nodiscard]] std::size_t pending_count(int channel) const noexcept;

  /// Accepted readings not yet reflected in the cached model.
  [[nodiscard]] std::size_t staleness(int channel) const noexcept;

  [[nodiscard]] const DatabaseStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const campaign::LabelingConfig& labeling_config()
      const noexcept {
    return labeling_;
  }

 private:
  ModelConstructorConfig constructor_config_;
  campaign::LabelingConfig labeling_;
  UploadPolicy upload_policy_;

  std::map<int, ChannelState> channels_;
  std::map<int, WhiteSpaceModel> model_cache_;
  /// Serialized form of the entry in model_cache_; erased alongside it.
  std::map<int, std::string> descriptor_cache_;
  DatabaseStats stats_;
};

}  // namespace waldo::core
