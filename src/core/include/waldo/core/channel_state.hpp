// The per-channel state machine of the spectrum database (Section 3.4):
// one channel's trusted dataset, its pending-corroboration pool, its apply
// ticket, its staleness counter and the screening index over the dataset.
//
// The dataset is stored by column, and only the columns the model reads
// (Section 3.2): position, RSS, CFT and AFT, 40 B a reading. A reading's
// raw device value, its validation-only ground truth and its I/Q capture
// are dropped at the edge, when an ingest or an upload hands it in. Each
// column grows in fixed blocks, so it holds its readings and at most one
// part-filled block: a doubling vector would hold up to twice its size
// and leave the buffers it outgrew behind in the allocator.
//
// service::SpectrumService, the one spectrum store, is a map of these
// behind per-shard locks; a cluster node transfers them verbatim when a
// replica recovers. The screening index grows with each ingest and
// each accepted batch, so screening one upload batch costs O(batch) index
// queries instead of a rebuild over the whole channel.
//
// An upload runs in two steps. screen() is const: it decides each
// reading against the dataset and the index alone, so a store can run it
// beside its readers. apply() then settles the batch against the pending
// pool and appends it; it is the only step that writes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "waldo/campaign/measurement.hpp"
#include "waldo/codec/codec.hpp"
#include "waldo/core/features.hpp"
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

/// What the store keeps of one reading: its location and the three signal
/// features the model reads.
struct StoredReading {
  geo::EnuPoint position;
  double rss_dbm = 0.0;
  double cft_db = 0.0;
  double aft_db = 0.0;

  [[nodiscard]] static StoredReading of(const campaign::Measurement& m) {
    return {m.position, m.rss_dbm, m.cft_db, m.aft_db};
  }
  /// As a Measurement: raw and true_rss_dbm are 0 and there is no I/Q.
  [[nodiscard]] campaign::Measurement measurement() const {
    campaign::Measurement m;
    m.position = position;
    m.rss_dbm = rss_dbm;
    m.cft_db = cft_db;
    m.aft_db = aft_db;
    return m;
  }
};

/// A crowd-sourced reading parked for corroboration — seen but not trusted.
struct PendingReading {
  StoredReading reading;
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
/// promoted — to `accepted`; a promoted pending comes back as the store
/// keeps it (StoredReading::measurement). The returned ledger's ticket is
/// left 0; stores stamp their own apply order.
///
/// One-shot form: scans all of `stored` for each reading, with the exact
/// neighbourhood test of the index that ChannelState::upload keeps between
/// batches, and reaches the same verdicts without building that index.
[[nodiscard]] UploadResult screen_upload(
    const campaign::ChannelDataset& stored,
    std::vector<PendingReading>& pending, const UploadPolicy& policy,
    std::span<const campaign::Measurement> readings,
    const std::string& contributor,
    std::vector<campaign::Measurement>& accepted);

/// One stored column: values in blocks of kBlock that never move once
/// written.
template <typename T>
class StoredColumn {
 public:
  static constexpr std::size_t kBlock = 2048;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return blocks_[i / kBlock][i % kBlock];
  }
  void push_back(const T& value) {
    if (size_ % kBlock == 0) blocks_.emplace_back();
    std::vector<T>& block = blocks_.back();
    if (block.capacity() < kBlock) block.reserve(kBlock);
    block.push_back(value);
    ++size_;
  }
  /// Copies every value into `out`, resized under runtime::resize_reused.
  void copy_to(std::vector<T>& out) const;

 private:
  std::vector<std::vector<T>> blocks_;
  std::size_t size_ = 0;
};

class ChannelState {
 public:
  /// Ledger of one applied batch, plus whether it pushed the staleness
  /// counter over the rebuild threshold (the owner must then drop its
  /// cached model; the counter has already restarted from 0).
  struct Applied {
    UploadResult ledger;
    bool model_stale = false;
  };

  /// What screen() decides for one reading of a batch.
  enum class Verdict : std::uint8_t {
    kReject,     ///< implausible, or beyond max_deviation_db of the median
    kAccept,     ///< vouched for by min_neighbours stored readings or more
    kUnvouched,  ///< too few neighbours: apply() asks the pending pool
  };

  ChannelState() = default;
  explicit ChannelState(const campaign::ChannelDataset& trusted);

  [[nodiscard]] int channel() const noexcept { return channel_; }
  /// Number of trusted readings.
  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }
  /// Copies the columns a `num_features` model reads (positions and RSS,
  /// plus CFT from 3 features and AFT from 4) into `into`, whose buffers
  /// keep their storage (runtime::resize_reused); the others are left
  /// empty. A serving rebuild's snapshot. Throws std::invalid_argument
  /// unless num_features is in [1, 4].
  void copy_columns(int num_features, TrainingColumns& into) const;
  /// A copy of the trusted dataset as Measurements, each with raw and
  /// true_rss_dbm 0 and no I/Q (the store keeps none of them).
  [[nodiscard]] campaign::ChannelDataset dataset() const;
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

  /// Offline phase: appends a trusted sweep's stored columns (adopting its
  /// channel and sensor name if this state is still empty) and zeroes the
  /// staleness counter — the next build sees everything.
  void ingest(const campaign::ChannelDataset& trusted);

  /// First step of an upload, read-only: one verdict per reading, by one
  /// radius query of the screening index each. std::nullopt until the
  /// index exists (the first upload() builds it). Every verdict depends
  /// only on the dataset before the batch, which apply() appends to last.
  [[nodiscard]] std::optional<std::vector<Verdict>> screen(
      const UploadPolicy& policy,
      std::span<const campaign::Measurement> readings) const;

  /// Second step: settles each kUnvouched reading against the pending
  /// pool in batch order (promoted with the parked readings that
  /// corroborate it, or parked), appends the newly trusted readings to the
  /// dataset and the screening index, and stamps the ledger with this
  /// state's next apply ticket. `verdicts` must be screen()'s for
  /// `readings`, with the dataset unchanged since; the result is then
  /// exactly screen_upload's. Throws std::invalid_argument unless there is
  /// one verdict per reading.
  [[nodiscard]] Applied apply(const UploadPolicy& policy,
                              std::span<const campaign::Measurement> readings,
                              const std::string& contributor,
                              std::span<const Verdict> verdicts);

  /// Both steps at once, for single-threaded callers: builds the
  /// screening index if absent, then apply() of screen().
  [[nodiscard]] Applied upload(const UploadPolicy& policy,
                               std::span<const campaign::Measurement> readings,
                               const std::string& contributor);

  /// A model built from the current dataset was published.
  void model_built() noexcept { accepted_since_build_ = 0; }

  /// Drops every pending reading parked by `contributor`; returns how many.
  std::size_t purge_pending(const std::string& contributor);

  /// Appends the stored columns (5 raw f64 a reading), the pending pool
  /// (the same plus a contributor), apply ticket and staleness counter
  /// (docs/WIRE_FORMAT.md, "TileSnapshot"). The screening index is derived
  /// state: decode() leaves it to be rebuilt by the first upload.
  void encode(codec::Writer& out) const;
  /// Throws codec::Error on malformed input.
  [[nodiscard]] static ChannelState decode(codec::Reader& in);

 private:
  /// Trusted reading `i`, gathered from the columns.
  [[nodiscard]] StoredReading reading(std::size_t i) const;
  /// Appends one reading to every column (the caller extends the index).
  void append(const StoredReading& r);

  int channel_ = 0;
  std::string sensor_name_;
  StoredColumn<geo::EnuPoint> positions_;
  StoredColumn<double> rss_dbm_;
  StoredColumn<double> cft_db_;
  StoredColumn<double> aft_db_;
  std::vector<PendingReading> pending_;
  std::size_t accepted_since_build_ = 0;
  std::uint64_t uploads_applied_ = 0;
  /// Reading ids of the dataset bucketed for the neighbourhood query; built
  /// by the first upload() (cells sized to its policy's radius), then
  /// extended by every ingest and accepted batch.
  std::optional<geo::GridCells> index_;
};

}  // namespace waldo::core
