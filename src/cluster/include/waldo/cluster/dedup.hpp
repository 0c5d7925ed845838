// Exactly-once uploads across retries: the request ids a tile has applied,
// each with the ledger it was answered with, kept for a fixed horizon.
//
// Routers stamp every upload with a request id and retry it (after a lost
// ack, on another replica after a failover) only until their deadline
// expires. A tile therefore has to recognise an id only for as long as a
// retry of it can still arrive: kDedupHorizon after the apply. Expiry is by
// age alone, so a busy tile cannot push out an id whose retry is still
// allowed, and an idle one holds nothing older than the horizon once it
// applies its next upload.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "waldo/core/channel_state.hpp"

namespace waldo::cluster {

/// How long a tile remembers an applied request id. A router sends its
/// last retry before its deadline (RouterConfig::deadline, 5 s by default)
/// runs out, counted from the request's start; the apply came after that
/// start, so the retry lands less than one deadline after it. Routers
/// configured with a longer deadline may see a late retry applied twice.
inline constexpr std::chrono::seconds kDedupHorizon{5};

/// One remembered request, as it travels in a TileSnapshot: the ledger it
/// was answered with and how long ago it was applied.
struct DedupRecord {
  std::uint64_t request_id = 0;
  std::uint64_t age_ns = 0;
  core::UploadResult ledger;
};

class DedupWindow {
 public:
  using Clock = std::chrono::steady_clock;

  /// The ledger `request_id` was answered with, if it is remembered.
  [[nodiscard]] std::optional<core::UploadResult> find(
      std::uint64_t request_id) const;

  /// Remembers `request_id` as applied at `now`, after forgetting every id
  /// applied more than kDedupHorizon before `now`.
  void remember(std::uint64_t request_id, const core::UploadResult& ledger,
                Clock::time_point now);

  [[nodiscard]] std::size_t size() const noexcept { return by_id_.size(); }

  /// Every remembered id, oldest first, aged relative to `now`.
  [[nodiscard]] std::vector<DedupRecord> records(Clock::time_point now) const;

  /// Replaces the window with `records` (oldest first, aged relative to
  /// `now`), skipping any already past the horizon.
  void restore(const std::vector<DedupRecord>& records, Clock::time_point now);

 private:
  struct Entry {
    core::UploadResult ledger;
    Clock::time_point applied;
  };

  void expire(Clock::time_point now);

  std::unordered_map<std::uint64_t, Entry> by_id_;
  std::deque<std::uint64_t> order_;  ///< ids in apply order
};

}  // namespace waldo::cluster
