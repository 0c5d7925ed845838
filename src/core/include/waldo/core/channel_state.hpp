// The per-channel state machine of the spectrum database (Section 3.4):
// one channel's trusted dataset, its pending-corroboration pool, its apply
// ticket, its staleness counter and the screening index over the dataset.
//
// core::SpectrumDatabase is a map of these; service::SpectrumService is the
// same map behind per-shard locks; a cluster node transfers them verbatim
// when a replica recovers. The screening index grows with each ingest and
// each accepted batch, so screening one upload batch costs O(batch) index
// queries instead of a rebuild over the whole channel.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "waldo/campaign/measurement.hpp"
#include "waldo/codec/codec.hpp"
#include "waldo/geo/grid_index.hpp"

namespace waldo::core {

struct UploadPolicy {
  /// Radius within which stored readings vouch for an upload.
  double neighbourhood_m = 1'000.0;
  /// Minimum vouching neighbours required to apply the correlation test.
  std::size_t min_neighbours = 3;
  /// Maximum deviation from the neighbourhood median RSS before an upload
  /// is rejected as implausible / malicious. Honest readings deviate by
  /// shadowing-pocket depth plus device noise (a few dB).
  double max_deviation_db = 12.0;
  /// Uploads in unexplored territory cannot be correlation-checked, so
  /// they are *held pending* instead of trusted: a pending reading is
  /// promoted into the dataset only once readings from enough distinct
  /// contributors agree with it (the uploader counts as one; several
  /// parked readings of one identity count once). (Colluding Sybil
  /// identities can still corroborate each other — the full defence of
  /// Fatemieh et al. adds RF-propagation consistency, which the
  /// correlation test approximates only where trusted data exists.)
  double corroboration_m = 500.0;
  std::size_t min_corroborators = 2;
  /// Cached models are invalidated only after this many readings have been
  /// accepted since the last build — retraining per upload batch would make
  /// large deployments rebuild constantly for negligible accuracy gain.
  std::size_t rebuild_threshold = 1;
};

/// A crowd-sourced reading parked for corroboration — seen but not trusted.
struct PendingReading {
  campaign::Measurement measurement;
  std::string contributor;
};

/// Ledger of one upload batch.
struct UploadResult {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t pending = 0;  ///< held for corroboration, not yet trusted
  /// 0-based position of this batch in the channel's total upload order
  /// (every upload call consumes one ticket, even all-rejected ones —
  /// they may still park pending readings). Replaying recorded batches in
  /// ticket order against a fresh store reproduces the channel's dataset
  /// and pending pool byte-for-byte; tests/test_service.cpp holds the
  /// concurrent serving layer to exactly that contract.
  std::uint64_t ticket = 0;
};

/// Screens one upload batch against a channel's trusted dataset and pending
/// pool per `policy` (Section 3.4): a reading with a non-finite RSS or a
/// position that is non-finite or beyond +-2e7 m on either axis (farther
/// than any point on Earth) is rejected outright; readings the stored
/// neighbourhood can vouch for are correlation-checked; readings in
/// unexplored territory are promoted when enough distinct contributors
/// corroborate, parked pending otherwise. Mutates `pending` (parks new
/// readings, removes promoted ones) and appends every newly trusted
/// measurement — each accepted batch reading followed by the pendings it
/// promoted — to `accepted`. The returned ledger's ticket is left 0;
/// stores stamp their own apply order.
///
/// One-shot form: builds a screening index over `stored` for this batch
/// alone. ChannelState::upload keeps that index between batches and
/// reaches the same verdicts.
[[nodiscard]] UploadResult screen_upload(
    const campaign::ChannelDataset& stored,
    std::vector<PendingReading>& pending, const UploadPolicy& policy,
    std::span<const campaign::Measurement> readings,
    const std::string& contributor,
    std::vector<campaign::Measurement>& accepted);

class ChannelState {
 public:
  /// Ledger of one applied batch, plus whether it pushed the staleness
  /// counter over the rebuild threshold (the owner must then drop its
  /// cached model; the counter has already restarted from 0).
  struct Applied {
    UploadResult ledger;
    bool model_stale = false;
  };

  ChannelState() = default;
  explicit ChannelState(campaign::ChannelDataset trusted);

  [[nodiscard]] int channel() const noexcept { return dataset_.channel; }
  [[nodiscard]] const campaign::ChannelDataset& dataset() const noexcept {
    return dataset_;
  }
  [[nodiscard]] const std::vector<PendingReading>& pending() const noexcept {
    return pending_;
  }
  /// Next apply ticket == number of upload batches applied so far.
  [[nodiscard]] std::uint64_t uploads_applied() const noexcept {
    return uploads_applied_;
  }
  /// Readings accepted since the last model build.
  [[nodiscard]] std::size_t staleness() const noexcept {
    return accepted_since_build_;
  }

  /// Offline phase: appends a trusted sweep (adopting its channel and
  /// sensor name if this state is still empty) and zeroes the staleness
  /// counter — the next build sees everything.
  void ingest(campaign::ChannelDataset trusted);

  /// Screens `readings` exactly as screen_upload does, appends the newly
  /// trusted readings to the dataset and the screening index, and stamps
  /// the ledger with this state's next apply ticket.
  [[nodiscard]] Applied upload(const UploadPolicy& policy,
                               std::span<const campaign::Measurement> readings,
                               const std::string& contributor);

  /// A model built from the current dataset was published.
  void model_built() noexcept { accepted_since_build_ = 0; }

  /// Drops every pending reading parked by `contributor`; returns how many.
  std::size_t purge_pending(const std::string& contributor);

  /// Appends dataset (raw f64 fields, I/Q included), pending pool, apply
  /// ticket and staleness counter. The screening index is derived state:
  /// decode() leaves it to be rebuilt by the first upload.
  void encode(codec::Writer& out) const;
  /// Throws codec::Error on malformed input.
  [[nodiscard]] static ChannelState decode(codec::Reader& in);

 private:
  campaign::ChannelDataset dataset_;
  std::vector<PendingReading> pending_;
  std::size_t accepted_since_build_ = 0;
  std::uint64_t uploads_applied_ = 0;
  /// Reading ids of dataset_ bucketed for the neighbourhood query; built
  /// by the first upload (cells sized to its policy's radius), then
  /// extended by every ingest and accepted batch.
  std::optional<geo::GridCells> index_;
};

}  // namespace waldo::core
