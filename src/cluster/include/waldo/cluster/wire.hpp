// The intra-cluster wire format, one level below WSNP.
//
// Every message between router and nodes (and node to node) is a CLSTR/1
// envelope naming a verb and the tile it addresses:
//
//   CLSTR/1 <verb> <from> <tile-x> <tile-y> <body-bytes>\n<body>
//
// `from` is the sending node id (kClientNode for router/client traffic).
// Receivers use it to fence stale writers: a replication frame from a node
// that is no longer the tile's primary is rejected, which is what keeps a
// killed primary's final in-flight writes from splitting the log.
//
// Verbs: "wsnp" (a client WSNP request or response rides in the body —
// the cluster never re-encodes client traffic), "repl" (a binary
// ReplEntry: a ticket-stamped WSNP upload wire), "pull" (state-transfer
// request; empty body), "state" (a binary TileSnapshot: the reply to a
// pull, or a primary's push to a secondary that answered a repl with
// kNotReady) and "ok" (bare ack of a repl or a state push). Bootstrap
// campaigns are not traffic: the harness hands them to each replica.
//
// Bodies are length-prefixed byte strings: binary descriptors and
// snapshots pass through unmolested. The envelope decode is checked the
// same way WSNP is — hostile lengths, trailing garbage and truncation are
// rejected, never trusted. ReplEntry and TileSnapshot bodies are framed
// with codec::Writer (docs/WIRE_FORMAT.md), whose CRC32 trailer also
// rejects every single-bit flip.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "waldo/cluster/dedup.hpp"
#include "waldo/cluster/tiling.hpp"
#include "waldo/core/channel_state.hpp"

namespace waldo::cluster {

/// Sentinel `from` for traffic that originates outside the node set.
inline constexpr NodeId kClientNode = 0xFFFFFFFFu;

struct Envelope {
  std::string verb;
  NodeId from = kClientNode;
  TileKey tile;
  std::string body;
};

[[nodiscard]] std::string encode_envelope(const Envelope& envelope);
/// Throws std::runtime_error on malformed input.
[[nodiscard]] Envelope decode_envelope(const std::string& wire);

/// One replicated upload: where it sits in the channel's total order
/// (ticket), its dedup identity, and the verbatim WSNP upload_request wire
/// the primary applied. Replicas replay the exact client bytes — nothing
/// is re-encoded between replicas, so there is nothing to drift.
/// Framed with codec::Writer: i64 channel, u64 ticket, u64 request id,
/// str upload wire, CRC32 trailer.
struct ReplEntry {
  int channel = 0;
  std::uint64_t ticket = 0;
  std::uint64_t request_id = 0;
  std::string upload_wire;
};

[[nodiscard]] std::string encode_repl_entry(const ReplEntry& entry);
/// Throws codec::Error (a std::runtime_error) on malformed input.
[[nodiscard]] ReplEntry decode_repl_entry(const std::string& body);

/// Full tile state for recovery: every channel's core::ChannelState
/// (dataset, pending pool, apply ticket, staleness counter) plus the live
/// dedup window, oldest record first. Installing it reproduces the source
/// replica's datasets and pending pools byte-for-byte, and lets retries of
/// uploads the source applied still hit the dedup table.
///
/// Layout 2 opens with its layout number and carries each stored reading
/// as 5 f64 (position, RSS, CFT, AFT: 40 B); a pending reading adds its
/// contributor. Layout 1, with no number, carried 7 f64 and an I/Q count
/// a reading; nodes of different layouts cannot exchange state.
///
/// Framed with codec::Writer (docs/WIRE_FORMAT.md): doubles travel as raw
/// IEEE-754 bits, every count is bounds-checked, and a CRC32 trailer
/// rejects corruption.
struct TileSnapshot {
  std::vector<core::ChannelState> channels;
  std::vector<DedupRecord> dedup;
};

inline constexpr std::uint64_t kTileSnapshotLayout = 2;

[[nodiscard]] std::string encode_tile_snapshot(const TileSnapshot& snapshot);
/// Throws codec::Error (a std::runtime_error) on malformed input.
[[nodiscard]] TileSnapshot decode_tile_snapshot(const std::string& body);

}  // namespace waldo::cluster
