// Waldo's central spectrum database (Sections 3.1 and 3.4). The offline
// phase ingests trusted campaign data and constructs per-channel models;
// the online phase serves compact model descriptors to devices and accepts
// crowd-sourced measurement uploads, sanity-checked by correlating each
// upload against nearby stored readings (the defence of [26]).
//
// There is one store: service::SpectrumService (src/service), which keeps
// each channel in a core::ChannelState (channel_state.hpp) behind per-shard
// locks and builds models serially on the request thread. SpectrumStore is
// the seam through which core code — the WSNP ProtocolServer, the
// SecureUpdater and device::PhoneRuntime — reaches that store, since core
// cannot depend on the service layer.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "waldo/campaign/measurement.hpp"
#include "waldo/core/channel_state.hpp"

namespace waldo::core {

/// The store surface core code serves from. Thread safety is the
/// implementor's contract; service::SpectrumService is safe for arbitrary
/// concurrent callers.
class SpectrumStore {
 public:
  virtual ~SpectrumStore() = default;

  [[nodiscard]] virtual bool has_channel(int channel) const = 0;

  /// Serialized model descriptor — what a WSD's Local Model Parameters
  /// Updater downloads. Implementations account traffic in their counters.
  [[nodiscard]] virtual std::string download_model(int channel) = 0;

  /// Online phase, Global Model Updater: submits device measurements.
  /// `contributor` identifies the uploading device for the corroboration
  /// rule (pending readings are promoted only by *other* contributors).
  virtual UploadResult upload_measurements(
      int channel, std::span<const campaign::Measurement> readings,
      const std::string& contributor) = 0;

  /// Drops every pending (not-yet-corroborated) reading parked by
  /// `contributor`, on all channels; returns how many were purged.
  /// SecureUpdater calls this at quarantine time so a quarantined
  /// identity's stash can never be promoted by later corroboration.
  virtual std::size_t purge_pending(const std::string& contributor) = 0;
};

}  // namespace waldo::core
