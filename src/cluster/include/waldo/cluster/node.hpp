// One cluster node: a set of tile-scoped SpectrumService instances plus
// the replication machinery that keeps replicas byte-identical.
//
// Data model. A node hosts every tile whose HRW replica set contains it.
// Each tile owns a full SpectrumService (one core::ChannelState per
// channel — dataset, pending pool, apply ticket, staleness counter,
// screening index — plus models and descriptor caches) and the cluster
// bookkeeping: a request-id dedup window. No node keeps a per-upload log:
// what an upload leaves behind is the readings it added and, for
// kDedupHorizon, its dedup record.
//
// Write path. The tile's primary (first non-dead replica in HRW order)
// applies a client upload through its service — which assigns the
// per-channel apply ticket — and synchronously replicates {ticket,
// request_id, verbatim client wire} to every other live replica before
// acknowledging. Secondaries apply entries strictly in ticket order, so
// every replica applies the identical byte stream in the identical order
// and the serial-replay determinism theorem (tests/test_service.cpp) makes
// their datasets, models and descriptors byte-identical.
//
// Safety under failure.
//  - Exactly-once: uploads carry a request id; primaries and secondaries
//    both remember id -> ledger for kDedupHorizon (dedup.hpp), at least as
//    long as the default router retries, so a client retry after a lost
//    ack (or an injector-duplicated frame) is answered with the original
//    ledger, re-encoded to the original bytes, instead of applying twice.
//  - Fencing: upload acceptance re-validates "am I the primary, am I
//    ready" against a fresh membership snapshot *under the tile mutex*,
//    and replication receivers re-validate the sender the same way — once
//    before they allocate anything for the tile, and again under its
//    mutex. A primary that was just killed (or deposed by a recovery) has
//    its final in-flight writes rejected rather than split into a second
//    apply order.
//  - State push: a secondary that cannot apply an entry answers kNotReady,
//    and the primary pushes it the whole tile state instead (verb
//    "state"), taken under the primary's tile mutex. That covers a syncing
//    tile and a gap: with R >= 3 a primary can die after its last write
//    reached one secondary but not another.
//  - Recovery is state transfer: a wiped node re-enters as kSyncing,
//    pulls each owned tile's TileSnapshot (every channel's ChannelState
//    plus the live dedup window) from a ready peer, installs it — unless a
//    state push got there first — and only then serves again, with
//    datasets and pending pools byte-identical to its peers'
//    (test-enforced). Its cost follows the tile's size, not the number of
//    uploads it has seen.
//
// Lock order: lifecycle_mutex_ (shared for handlers, unique for wipe) ->
// tiles_mutex_ (shared for lookups, unique for tile creation and wipe;
// held only for the map operation, never across a tile lock) ->
// Tile::mutex. Membership reads take no lock (membership.hpp), so they sit
// outside the order. Replication RPCs are issued while holding
// the *local* tile mutex; they can only take mutexes on other nodes, so
// the cross-node acquisition graph is acyclic (replication never flows
// back to the sender for the same tile).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/measurement.hpp"
#include "waldo/cluster/membership.hpp"
#include "waldo/cluster/tiling.hpp"
#include "waldo/cluster/transport.hpp"
#include "waldo/cluster/wire.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/core/protocol.hpp"
#include "waldo/runtime/backoff.hpp"

namespace waldo::cluster {

/// Placement parameters every participant must agree on.
struct ClusterTopology {
  Tiling tiling{50'000.0};
  NodeId num_nodes = 1;
  std::size_t replication = 1;
};

/// Monotonic per-node traffic counters (snapshot of atomics).
struct NodeStats {
  std::uint64_t uploads_applied = 0;     ///< as primary
  std::uint64_t repl_fenced = 0;         ///< rejected: sender not primary
  std::uint64_t dedup_hits = 0;
  std::uint64_t rejected_not_owner = 0;
  std::uint64_t snapshots_installed = 0;
  /// Replication to a live peer gave up after persistent non-transport
  /// errors (a logic fault, not a network fault); tests assert 0.
  std::uint64_t repl_abandoned = 0;
  /// Full tile states pushed to a secondary that was syncing or had missed
  /// a write of a deposed primary (see handle_repl).
  std::uint64_t state_pushes = 0;
  /// A replicated apply produced a different ticket than the primary's —
  /// a log-divergence alarm; tests assert it stays 0.
  std::uint64_t ticket_mismatches = 0;
};

class ClusterNode {
 public:
  ClusterNode(NodeId id, ClusterTopology topology,
              core::ModelConstructorConfig constructor_config,
              campaign::LabelingConfig labeling,
              core::UploadPolicy upload_policy,
              const MembershipView& membership,
              runtime::BackoffConfig replication_backoff = {});
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Fabric used for outbound replication. Must be set (once) before any
  /// traffic arrives; the cluster harness wires it after all nodes exist.
  void attach_transport(Transport& transport) noexcept;

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Handles one CLSTR envelope; every failure comes back as a response
  /// envelope (a WSNP error body), never an exception.
  [[nodiscard]] std::string handle(const std::string& envelope_wire) noexcept;

  /// Process-restart semantics: discards every tile. The caller must have
  /// already marked the node kDead; in-flight handlers finish first.
  void wipe();

  /// Bootstrap: ingests a trusted campaign into the tile's service, which
  /// copies out the columns it stores. Throws if the node is down.
  void ingest_campaign(TileKey tile, const campaign::ChannelDataset& dataset);

  /// Recovery: installs a pulled tile snapshot. Does nothing on an
  /// already-synced tile (a state push got there first).
  void install_snapshot(TileKey tile, TileSnapshot snapshot);

  // -- verification/diagnostic accessors (bypass the transport) --

  [[nodiscard]] std::vector<TileKey> tiles() const;
  /// Serialized model descriptor for a (tile, channel); builds if stale.
  /// Empty string when the tile/channel is absent.
  [[nodiscard]] std::string descriptor_bytes(TileKey tile, int channel);
  /// Normalized CSV of the (tile, channel) trusted dataset; empty when
  /// absent. Byte-comparable across replicas.
  [[nodiscard]] std::string dataset_csv(TileKey tile, int channel) const;
  /// Upload batches the (tile, channel) has applied == its next apply
  /// ticket; 0 when absent.
  [[nodiscard]] std::uint64_t uploads_applied(TileKey tile,
                                              int channel) const;

  [[nodiscard]] NodeStats stats() const;

 private:
  struct Tile;

  [[nodiscard]] std::string handle_wsnp(const Envelope& request);
  [[nodiscard]] std::string handle_repl(const Envelope& request);
  [[nodiscard]] std::string handle_pull(const Envelope& request);
  [[nodiscard]] std::string handle_state(const Envelope& request);

  /// First non-dead replica for `tile` under `m` — the fencing rule every
  /// participant applies identically. kClientNode when all are dead.
  [[nodiscard]] NodeId tile_primary(const Membership& m, TileKey tile) const;

  /// True when `request` comes from the tile's current primary under a
  /// fresh membership snapshot — the rule every replication receiver
  /// applies before it touches a tile.
  [[nodiscard]] bool from_primary(const Envelope& request) const;
  /// Counts a fenced frame and builds its kNotOwner reply.
  [[nodiscard]] std::string fenced(const Envelope& request, int channel) const;

  [[nodiscard]] Tile* find_tile(TileKey key) const;
  [[nodiscard]] Tile& tile_or_create(TileKey key, bool synced);

  /// Applies one upload through the tile service and remembers its
  /// request id in the dedup window. With `expect_ticket` (a replicated
  /// entry), the assigned ticket must equal it or the replicas have split
  /// — throws std::logic_error. Caller holds the tile mutex.
  core::UploadResult apply_locked(Tile& t, const core::UploadRequest& upload,
                                  std::uint64_t request_id,
                                  std::optional<std::uint64_t> expect_ticket);

  /// Decodes and applies one replicated entry, which must land on its
  /// ticket. Caller holds the tile mutex.
  void apply_entry_locked(Tile& t, const ReplEntry& entry);

  /// Synchronously replicates `entry` to every live replica other than
  /// this node; a replica that answers kNotReady (syncing, or a gap) gets
  /// the whole tile state instead. Returns false if a receiver fenced us
  /// (caller must not ack). Caller holds the tile mutex.
  [[nodiscard]] bool replicate_locked(Tile& t, TileKey key,
                                      const ReplEntry& entry);

  /// Installs `snapshot` over the tile's channels and dedup window and
  /// marks the tile synced. Caller holds the tile mutex.
  void install_locked(Tile& t, TileSnapshot snapshot);

  /// A "state" envelope carrying the tile's TileSnapshot. Caller holds the
  /// tile mutex, so the snapshot is one instant of the tile.
  [[nodiscard]] std::string state_envelope_locked(const Tile& t,
                                                  TileKey key) const;

  [[nodiscard]] std::string error_envelope(TileKey tile,
                                           core::ErrorCode code, int channel,
                                           std::string reason) const;

  const NodeId id_;
  const ClusterTopology topology_;
  const core::ModelConstructorConfig constructor_config_;
  const campaign::LabelingConfig labeling_;
  const core::UploadPolicy upload_policy_;
  const runtime::BackoffConfig replication_backoff_;
  const MembershipView* membership_;
  Transport* transport_ = nullptr;

  /// Held shared by every handler, unique by wipe(): a wipe (node death)
  /// waits for in-flight requests instead of racing their tile pointers.
  mutable std::shared_mutex lifecycle_mutex_;

  /// Guards the map, not tile contents: shared by lookups (every
  /// request), unique by tile creation and wipe().
  mutable std::shared_mutex tiles_mutex_;
  std::map<TileKey, std::unique_ptr<Tile>> tiles_;

  struct Counters;
  std::unique_ptr<Counters> counters_;
};

}  // namespace waldo::cluster
