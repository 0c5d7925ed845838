#include "waldo/cluster/node.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>

#include "waldo/campaign/dataset_io.hpp"
#include "waldo/core/protocol.hpp"
#include "waldo/service/service.hpp"

namespace waldo::cluster {

namespace {

[[nodiscard]] std::string upload_response(const core::UploadResult& ledger) {
  return core::encode(core::UploadResponse{.accepted = ledger.accepted,
                                           .rejected = ledger.rejected,
                                           .pending = ledger.pending,
                                           .ticket = ledger.ticket});
}

}  // namespace

struct ClusterNode::Tile {
  Tile(const core::ModelConstructorConfig& constructor_config,
       const campaign::LabelingConfig& labeling,
       const core::UploadPolicy& upload_policy, bool synced_in)
      : service(constructor_config, labeling, upload_policy),
        synced(synced_in) {}

  service::SpectrumService service;  // thread-safe; reads skip `mutex`

  /// Serialises every write to the tile (client uploads, replication,
  /// state transfer) and guards the fields below. Holding it across the
  /// synchronous replication RPC is deliberate: the tile's apply order IS
  /// its replication order, and the fencing re-check must be atomic with
  /// the apply. Downloads never take it.
  std::mutex mutex;
  DedupWindow dedup;
  /// False until a state is installed (fresh from a wipe). Client traffic
  /// and replication require synced.
  bool synced;
};

struct ClusterNode::Counters {
  std::atomic<std::uint64_t> uploads{0};
  std::atomic<std::uint64_t> repl_fenced{0};
  std::atomic<std::uint64_t> dedup_hits{0};
  std::atomic<std::uint64_t> not_owner{0};
  std::atomic<std::uint64_t> installs{0};
  std::atomic<std::uint64_t> repl_abandoned{0};
  std::atomic<std::uint64_t> state_pushes{0};
  std::atomic<std::uint64_t> mismatches{0};
};

ClusterNode::ClusterNode(NodeId id, ClusterTopology topology,
                         core::ModelConstructorConfig constructor_config,
                         campaign::LabelingConfig labeling,
                         core::UploadPolicy upload_policy,
                         const MembershipView& membership,
                         runtime::BackoffConfig replication_backoff)
    : id_(id),
      topology_(topology),
      constructor_config_(std::move(constructor_config)),
      labeling_(labeling),
      upload_policy_(upload_policy),
      replication_backoff_(replication_backoff),
      membership_(&membership),
      counters_(std::make_unique<Counters>()) {}

ClusterNode::~ClusterNode() = default;

void ClusterNode::attach_transport(Transport& transport) noexcept {
  transport_ = &transport;
}

NodeId ClusterNode::tile_primary(const Membership& m, TileKey tile) const {
  for (const NodeId n :
       replica_set(tile, topology_.num_nodes, topology_.replication)) {
    if (m.alive(n)) return n;
  }
  return kClientNode;
}

bool ClusterNode::from_primary(const Envelope& request) const {
  return tile_primary(*membership_->snapshot(), request.tile) == request.from;
}

std::string ClusterNode::fenced(const Envelope& request, int channel) const {
  counters_->repl_fenced.fetch_add(1, std::memory_order_relaxed);
  return error_envelope(request.tile, core::ErrorCode::kNotOwner, channel,
                        request.verb + " fenced: sender is not the primary");
}

ClusterNode::Tile* ClusterNode::find_tile(TileKey key) const {
  const std::shared_lock lock(tiles_mutex_);
  const auto it = tiles_.find(key);
  return it == tiles_.end() ? nullptr : it->second.get();
}

ClusterNode::Tile& ClusterNode::tile_or_create(TileKey key, bool synced) {
  // Every replicated upload looks its tile up here; only the first one
  // takes the map exclusively.
  if (Tile* t = find_tile(key)) return *t;
  const std::lock_guard lock(tiles_mutex_);
  auto& slot = tiles_[key];
  if (!slot) {
    slot = std::make_unique<Tile>(constructor_config_, labeling_,
                                  upload_policy_, synced);
  }
  return *slot;
}

std::string ClusterNode::error_envelope(TileKey tile, core::ErrorCode code,
                                        int channel,
                                        std::string reason) const {
  return encode_envelope(
      {.verb = "wsnp",
       .from = id_,
       .tile = tile,
       .body = core::encode(core::ErrorResponse{.reason = std::move(reason),
                                                .code = code,
                                                .channel = channel})});
}

std::string ClusterNode::handle(const std::string& envelope_wire) noexcept {
  Envelope request;
  try {
    request = decode_envelope(envelope_wire);
  } catch (const std::exception& e) {
    return error_envelope(TileKey{}, core::ErrorCode::kMalformed, 0,
                          e.what());
  }
  try {
    // Shared against wipe(): a dying node finishes in-flight requests
    // before its tiles vanish, so handlers never race the teardown.
    const std::shared_lock lifecycle(lifecycle_mutex_);
    if (!membership_->snapshot()->alive(id_)) {
      return error_envelope(request.tile, core::ErrorCode::kUnavailable, 0,
                            "node is down");
    }
    if (request.verb == "wsnp") return handle_wsnp(request);
    if (request.verb == "repl") return handle_repl(request);
    if (request.verb == "pull") return handle_pull(request);
    if (request.verb == "state") return handle_state(request);
    return error_envelope(request.tile, core::ErrorCode::kBadRequest, 0,
                          "unknown cluster verb: " + request.verb);
  } catch (const std::exception& e) {
    return error_envelope(request.tile, core::ErrorCode::kInternal, 0,
                          e.what());
  } catch (...) {
    return error_envelope(request.tile, core::ErrorCode::kInternal, 0,
                          "unidentified failure");
  }
}

std::string ClusterNode::handle_wsnp(const Envelope& request) {
  if (!membership_->snapshot()->ready(id_)) {
    return error_envelope(request.tile, core::ErrorCode::kNotReady, 0,
                          "node is syncing");
  }
  const auto replicas =
      replica_set(request.tile, topology_.num_nodes, topology_.replication);
  if (std::find(replicas.begin(), replicas.end(), id_) == replicas.end()) {
    counters_->not_owner.fetch_add(1, std::memory_order_relaxed);
    return error_envelope(request.tile, core::ErrorCode::kNotOwner, 0,
                          "node does not host this tile");
  }

  core::Message message;
  try {
    message = core::decode(request.body);
  } catch (const std::exception& e) {
    return error_envelope(request.tile, core::ErrorCode::kMalformed, 0,
                          e.what());
  }

  if (const auto* r = std::get_if<core::ModelRequest>(&message)) {
    Tile* t = find_tile(request.tile);
    if (t == nullptr || !t->synced) {
      return error_envelope(request.tile, core::ErrorCode::kNotReady,
                            r->channel, "tile not resident");
    }
    // Reads go straight to the thread-safe service (cached descriptor fast
    // path); they never contend with the tile write mutex.
    std::shared_ptr<const std::string> descriptor;
    try {
      descriptor = t->service.download_descriptor(r->channel);
    } catch (const std::out_of_range& e) {
      return error_envelope(request.tile, core::ErrorCode::kUnknownChannel,
                            r->channel, e.what());
    } catch (const std::exception& e) {
      return error_envelope(request.tile, core::ErrorCode::kInternal,
                            r->channel, e.what());
    }
    return encode_envelope(
        {.verb = "wsnp",
         .from = id_,
         .tile = request.tile,
         .body = core::encode_model_response(r->channel, *descriptor)});
  }

  const auto* r = std::get_if<core::UploadRequest>(&message);
  if (r == nullptr) {
    return error_envelope(request.tile, core::ErrorCode::kBadRequest, 0,
                          "cluster nodes accept request messages only");
  }

  Tile* t = find_tile(request.tile);
  if (t == nullptr || !t->synced) {
    return error_envelope(request.tile, core::ErrorCode::kNotReady,
                          r->channel, "tile not resident");
  }
  const std::lock_guard lock(t->mutex);
  // Fencing: re-validate primacy against a FRESH membership snapshot under
  // the tile mutex. A node the control plane just killed or deposed (a
  // recovering higher-priority replica went non-dead) must stop accepting
  // here, atomically with the apply — this is what keeps two nodes from
  // ever growing the same channel log concurrently.
  {
    const Membership* now = membership_->snapshot();
    if (!now->ready(id_) || tile_primary(*now, request.tile) != id_) {
      counters_->not_owner.fetch_add(1, std::memory_order_relaxed);
      return error_envelope(request.tile, core::ErrorCode::kNotOwner,
                            r->channel, "not the tile primary");
    }
  }
  const auto reply = [&](const core::UploadResult& ledger) {
    return encode_envelope({.verb = "wsnp",
                            .from = id_,
                            .tile = request.tile,
                            .body = upload_response(ledger)});
  };
  if (r->request_id != 0) {
    if (const auto hit = t->dedup.find(r->request_id)) {
      counters_->dedup_hits.fetch_add(1, std::memory_order_relaxed);
      return reply(*hit);
    }
  }

  core::UploadResult ledger;
  try {
    ledger = apply_locked(*t, *r, r->request_id, std::nullopt);
  } catch (const std::out_of_range& e) {
    return error_envelope(request.tile, core::ErrorCode::kUnknownChannel,
                          r->channel, e.what());
  }
  counters_->uploads.fetch_add(1, std::memory_order_relaxed);
  if (!replicate_locked(*t, request.tile, {.channel = r->channel,
                                       .ticket = ledger.ticket,
                                       .request_id = r->request_id,
                                       .upload_wire = request.body})) {
    // A receiver fenced us: we are being deposed (or are already marked
    // dead). The local apply survives in this node's state; if the node
    // lives on, peers receive it with the recovery pull, and the client's
    // retry lands on the dedup record — so not acking here is safe.
    return error_envelope(request.tile, core::ErrorCode::kUnavailable,
                          r->channel, "deposed during replication");
  }
  return reply(ledger);
}

std::string ClusterNode::handle_repl(const Envelope& request) {
  // Fence stale writers: only the current primary may append. Checked
  // once before the body is decoded or the tile looked up, so a stray,
  // corrupt or fenced frame never allocates a tile, and again under the
  // tile mutex against a fresh snapshot, mirroring the sender-side check.
  if (!from_primary(request)) return fenced(request, 0);
  const ReplEntry entry = decode_repl_entry(request.body);
  Tile& t = tile_or_create(request.tile, /*synced=*/false);
  const std::lock_guard lock(t.mutex);
  if (!from_primary(request)) return fenced(request, entry.channel);
  const int channel = entry.channel;
  if (!t.synced) {
    // Syncing: the primary answers kNotReady by pushing its whole tile
    // state, which already holds this entry.
    return error_envelope(request.tile, core::ErrorCode::kNotReady, channel,
                          "tile not synced");
  }
  // An entry below the next ticket is a duplicate: acked, not applied.
  if (const std::uint64_t next = t.service.uploads_applied(channel);
      entry.ticket > next) {
    // One primary replicates in ticket order and waits for each ack, so a
    // gap means a deposed primary's last write reached another replica
    // but not this one (possible with R >= 3). Nobody will resend it:
    // ask the current primary for its state instead.
    return error_envelope(request.tile, core::ErrorCode::kNotReady, channel,
                          "replication gap: missing ticket " +
                              std::to_string(next));
  } else if (entry.ticket == next) {
    apply_entry_locked(t, entry);
  }
  return encode_envelope(
      {.verb = "ok", .from = id_, .tile = request.tile, .body = {}});
}

std::string ClusterNode::handle_state(const Envelope& request) {
  // A state push comes from the tile's primary only, fenced like repl
  // before its body is decoded: a stray or corrupt frame from any other
  // sender is fenced, not answered with a decode error.
  if (!from_primary(request)) return fenced(request, 0);
  TileSnapshot snapshot = decode_tile_snapshot(request.body);
  Tile& t = tile_or_create(request.tile, /*synced=*/false);
  const std::lock_guard lock(t.mutex);
  if (!from_primary(request)) return fenced(request, 0);
  install_locked(t, std::move(snapshot));
  return encode_envelope(
      {.verb = "ok", .from = id_, .tile = request.tile, .body = {}});
}

std::string ClusterNode::handle_pull(const Envelope& request) {
  Tile* t = find_tile(request.tile);
  if (t == nullptr) {
    return error_envelope(request.tile, core::ErrorCode::kNotReady, 0,
                          "tile not resident");
  }
  const std::lock_guard lock(t->mutex);
  if (!t->synced) {
    return error_envelope(request.tile, core::ErrorCode::kNotReady, 0,
                          "tile not synced");
  }
  return state_envelope_locked(*t, request.tile);
}

core::UploadResult ClusterNode::apply_locked(
    Tile& t, const core::UploadRequest& upload, std::uint64_t request_id,
    std::optional<std::uint64_t> expect_ticket) {
  const core::UploadResult ledger = t.service.upload_measurements(
      upload.channel, upload.readings, upload.contributor);
  if (expect_ticket && ledger.ticket != *expect_ticket) {
    // The service applied identical bytes but landed on a different
    // ticket than the primary assigned: the replicas have split.
    counters_->mismatches.fetch_add(1, std::memory_order_relaxed);
    throw std::logic_error("cluster: replica ticket diverged");
  }
  if (request_id != 0) {
    t.dedup.remember(request_id, ledger, DedupWindow::Clock::now());
  }
  return ledger;
}

void ClusterNode::apply_entry_locked(Tile& t, const ReplEntry& entry) {
  const core::Message message = core::decode(entry.upload_wire);
  const auto* upload = std::get_if<core::UploadRequest>(&message);
  if (upload == nullptr) {
    throw std::runtime_error("cluster: repl entry is not an upload");
  }
  (void)apply_locked(t, *upload, entry.request_id, entry.ticket);
}

bool ClusterNode::replicate_locked(Tile& t, TileKey key,
                                   const ReplEntry& entry) {
  const auto replicas =
      replica_set(key, topology_.num_nodes, topology_.replication);
  if (replicas.size() <= 1) return true;
  const std::string repl = encode_envelope({.verb = "repl",
                                            .from = id_,
                                            .tile = key,
                                            .body = encode_repl_entry(entry)});
  for (const NodeId peer : replicas) {
    if (peer == id_) continue;
    // Set once the peer reports a replication gap: it then gets this
    // tile's whole state (which already includes `entry`) instead.
    bool push_state = false;
    runtime::Backoff backoff(replication_backoff_,
                             runtime::split_seed(entry.request_id,
                                                 entry.ticket));
    // Transport faults retry forever (the peer either accepts or dies);
    // persistent *protocol* errors are logic faults — bounded retries,
    // then give up loudly rather than hang the tile.
    int protocol_failures = 0;
    while (true) {
      if (!membership_->snapshot()->alive(peer)) break;  // resyncs later
      try {
        const Envelope reply = decode_envelope(transport_->send(
            peer, push_state ? state_envelope_locked(t, key) : repl));
        if (reply.verb == "ok") {
          if (push_state) {
            counters_->state_pushes.fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
        const core::Message message = core::decode(reply.body);
        if (const auto* err = std::get_if<core::ErrorResponse>(&message)) {
          if (err->code == core::ErrorCode::kNotOwner) return false;  // fenced
          if (err->code == core::ErrorCode::kNotReady && !push_state) {
            push_state = true;
            continue;
          }
        }
        if (++protocol_failures > 50) {
          counters_->repl_abandoned.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      } catch (const TransportError&) {
        // dropped request or reply — retry
      } catch (const std::exception&) {
        if (++protocol_failures > 50) {
          counters_->repl_abandoned.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      std::this_thread::sleep_for(backoff.next());
    }
  }
  return true;
}

void ClusterNode::wipe() {
  const std::unique_lock lifecycle(lifecycle_mutex_);
  const std::lock_guard lock(tiles_mutex_);
  tiles_.clear();
}

void ClusterNode::ingest_campaign(TileKey tile,
                                  const campaign::ChannelDataset& dataset) {
  const std::shared_lock lifecycle(lifecycle_mutex_);
  if (!membership_->snapshot()->alive(id_)) {
    throw std::runtime_error("cluster: node " + std::to_string(id_) +
                             " is down");
  }
  Tile& t = tile_or_create(tile, /*synced=*/true);
  const std::lock_guard lock(t.mutex);
  t.service.ingest_campaign(dataset);
}

void ClusterNode::install_snapshot(TileKey tile, TileSnapshot snapshot) {
  const std::shared_lock lifecycle(lifecycle_mutex_);
  Tile& t = tile_or_create(tile, /*synced=*/false);
  const std::lock_guard lock(t.mutex);
  if (t.synced) return;  // a state push got here first
  install_locked(t, std::move(snapshot));
}

void ClusterNode::install_locked(Tile& t, TileSnapshot snapshot) {
  for (core::ChannelState& state : snapshot.channels) {
    t.service.install_channel(std::move(state));
  }
  t.dedup.restore(snapshot.dedup, DedupWindow::Clock::now());
  t.synced = true;
  counters_->installs.fetch_add(1, std::memory_order_relaxed);
}

std::string ClusterNode::state_envelope_locked(const Tile& t,
                                               TileKey key) const {
  // Under the tile mutex no upload, ingest or install can run, so the
  // channel set, the channel states and the dedup window describe the same
  // instant. The states are encoded in place, each under its shard lock.
  TileSnapshotWriter out(t.service.channels().size());
  t.service.for_each_channel_state(
      [&out](const core::ChannelState& state) { out.channel(state); });
  return encode_envelope(
      {.verb = "state",
       .from = id_,
       .tile = key,
       .body = std::move(out).finish(
           t.dedup.records(DedupWindow::Clock::now()))});
}

std::vector<TileKey> ClusterNode::tiles() const {
  const std::shared_lock lock(tiles_mutex_);
  std::vector<TileKey> out;
  out.reserve(tiles_.size());
  for (const auto& [key, tile] : tiles_) out.push_back(key);
  return out;
}

std::string ClusterNode::descriptor_bytes(TileKey tile, int channel) {
  Tile* t = find_tile(tile);
  if (t == nullptr) return {};
  try {
    return *t->service.download_descriptor(channel);
  } catch (const std::out_of_range&) {
    return {};
  }
}

std::string ClusterNode::dataset_csv(TileKey tile, int channel) const {
  Tile* t = find_tile(tile);
  if (t == nullptr) return {};
  try {
    std::ostringstream os;
    campaign::write_csv(os, t->service.dataset_snapshot(channel));
    return os.str();
  } catch (const std::out_of_range&) {
    return {};
  }
}

std::uint64_t ClusterNode::uploads_applied(TileKey tile, int channel) const {
  Tile* t = find_tile(tile);
  return t == nullptr ? 0 : t->service.uploads_applied(channel);
}

NodeStats ClusterNode::stats() const {
  const Counters& c = *counters_;
  NodeStats out;
  out.uploads_applied = c.uploads.load(std::memory_order_relaxed);
  out.repl_fenced = c.repl_fenced.load(std::memory_order_relaxed);
  out.dedup_hits = c.dedup_hits.load(std::memory_order_relaxed);
  out.rejected_not_owner = c.not_owner.load(std::memory_order_relaxed);
  out.snapshots_installed = c.installs.load(std::memory_order_relaxed);
  out.repl_abandoned = c.repl_abandoned.load(std::memory_order_relaxed);
  out.state_pushes = c.state_pushes.load(std::memory_order_relaxed);
  out.ticket_mismatches = c.mismatches.load(std::memory_order_relaxed);
  return out;
}

}  // namespace waldo::cluster
