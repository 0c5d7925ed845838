// Layer replay: the inner layers the benchmark cannot wrap in place are
// timed by feeding the run's recorded inputs through their public
// functions, serially, after the load has stopped.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"
#include "waldo/campaign/labeling.hpp"
#include "waldo/cluster/tiling.hpp"
#include "waldo/core/database.hpp"

namespace serving {

/// The ledger of one acknowledged upload.
struct UploadRecord {
  std::uint32_t key = 0;
  std::uint32_t client = 0;
  std::uint32_t batch = 0;
  std::uint64_t ticket = 0;
  std::uint32_t accepted = 0;
  std::uint32_t rejected = 0;
  std::uint32_t pending = 0;
};

/// Fails `result` unless every ledger accounts for each reading sent and
/// every key's tickets are exactly 0..n-1.
void check_ledgers(const std::vector<UploadRecord>& uploads,
                   std::size_t num_keys, RunResult& result);

struct ScreenReplay {
  double decode_ns = 0.0;  ///< core::decode of one upload wire
  double screen_ns = 0.0;  ///< core::screen_upload of one batch
  std::uint64_t batches = 0;
  std::uint64_t readings = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t pending = 0;
  std::uint64_t pending_left = 0;  ///< pool size after the last batch
  /// Datasets at evenly spaced points of each key's history, for the
  /// rebuild replay.
  std::vector<waldo::campaign::ChannelDataset> snapshots;
};

/// Replays every upload in apply-ticket order per key, starting from
/// `start(key)`, through core::decode then core::screen_upload, and fails
/// `result` on any verdict that differs from the run's ledger. Keys run
/// in parallel on `threads` threads. `snapshots_per_key` datasets are kept
/// per key that saw uploads (the final one included).
[[nodiscard]] ScreenReplay replay_screening(
    const std::vector<UploadRecord>& uploads, std::size_t num_keys,
    const std::function<waldo::campaign::ChannelDataset(std::size_t)>& start,
    const std::function<const Batch&(const UploadRecord&)>& batch_of,
    const waldo::core::UploadPolicy& policy, unsigned threads,
    std::size_t snapshots_per_key, RunResult& result);

struct BuildReplay {
  double label_ns = 0.0;      ///< campaign::label_readings
  double build_ns = 0.0;      ///< ModelConstructor::build
  double serialize_ns = 0.0;  ///< WhiteSpaceModel::serialize
  double descriptor_bytes = 0.0;
};

[[nodiscard]] BuildReplay replay_builds(
    const std::vector<waldo::campaign::ChannelDataset>& datasets);

/// Per-call costs of the wire formats, by message type (ns).
struct WireCosts {
  double enc_model_request = 0.0, dec_model_request = 0.0;
  double enc_model_response = 0.0, dec_model_response = 0.0;
  double enc_upload_request = 0.0, dec_upload_request = 0.0;
  double enc_upload_response = 0.0, dec_upload_response = 0.0;
  /// encode_envelope + decode_envelope of one envelope of each kind.
  double env_download_request = 0.0, env_download_response = 0.0;
  double env_upload_request = 0.0, env_upload_response = 0.0;
  /// A replication frame: encode_repl_entry + envelope + decode_repl_entry.
  double env_repl = 0.0, env_ok = 0.0;
};

/// Times every wire type on samples of the run's real messages: the
/// downloaded descriptors, the upload batches and their ledgers.
[[nodiscard]] WireCosts replay_wires(
    const std::vector<std::pair<int, std::string>>& descriptors,
    const std::vector<const Batch*>& batches,
    const std::vector<UploadRecord>& ledgers,
    const waldo::geo::EnuPoint& location, waldo::cluster::TileKey tile);

/// Mean ns per call of `fn` over enough repetitions to last ~`budget_ms`.
[[nodiscard]] double time_per_call(const std::function<void()>& fn,
                                   double budget_ms = 20.0);

}  // namespace serving
