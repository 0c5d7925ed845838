#include "waldo/cluster/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "waldo/cluster/wire.hpp"

namespace waldo::cluster {

/// In-memory fabric: delivers envelopes by direct call into the target
/// node, after letting the FaultInjector adjudicate the message's fate.
/// Dead nodes are unreachable (TransportError), mirroring a refused
/// connection. Duplicated requests are delivered twice back-to-back — the
/// receiver's dedup/idempotency machinery, not delivery discipline, must
/// absorb them.
class Cluster::Loopback final : public Transport {
 public:
  Loopback(std::vector<std::unique_ptr<ClusterNode>>& nodes,
           const MembershipView& membership, FaultInjector& injector)
      : nodes_(&nodes), membership_(&membership), injector_(&injector) {}

  std::string send(NodeId to, const std::string& envelope) override {
    if (to >= nodes_->size()) {
      throw TransportError("loopback: no route to node " +
                           std::to_string(to));
    }
    const FaultInjector::Decision fate = injector_->next();
    if (fate.delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(fate.delay_us));
    }
    if (!membership_->snapshot()->alive(to)) {
      throw TransportError("loopback: node " + std::to_string(to) +
                           " is down");
    }
    if (fate.drop_request) {
      throw TransportError("loopback: request dropped");
    }
    std::string response = (*nodes_)[to]->handle(envelope);
    if (fate.duplicate) {
      // Redelivery: the first response wins, the second is discarded —
      // the shape a retransmit-after-timeout produces.
      (void)(*nodes_)[to]->handle(envelope);
    }
    if (fate.drop_response) {
      throw TransportError("loopback: response dropped");
    }
    return response;
  }

 private:
  std::vector<std::unique_ptr<ClusterNode>>* nodes_;
  const MembershipView* membership_;
  FaultInjector* injector_;
};

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      membership_(config_.num_nodes),
      injector_(config_.faults) {
  if (config_.num_nodes == 0) {
    throw std::invalid_argument("cluster needs at least one node");
  }
  if (config_.replication == 0) {
    throw std::invalid_argument("replication factor must be >= 1");
  }
  const ClusterTopology topo = topology();
  nodes_.reserve(config_.num_nodes);
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    nodes_.push_back(std::make_unique<ClusterNode>(
        id, topo, config_.constructor_config, config_.labeling,
        config_.upload_policy, membership_, config_.replication_backoff));
  }
  transport_ = std::make_unique<Loopback>(nodes_, membership_, injector_);
  for (auto& node : nodes_) node->attach_transport(*transport_);
}

Cluster::~Cluster() = default;

ClusterTopology Cluster::topology() const {
  return ClusterTopology{.tiling = Tiling(config_.tile_size_m),
                         .num_nodes = config_.num_nodes,
                         .replication = config_.replication};
}

Transport& Cluster::transport() noexcept { return *transport_; }

ClusterNode& Cluster::node(NodeId id) {
  if (id >= nodes_.size()) throw std::out_of_range("cluster: unknown node");
  return *nodes_[id];
}

TileKey Cluster::ingest_campaign(const campaign::ChannelDataset& dataset) {
  if (dataset.readings.empty()) {
    throw std::invalid_argument("refusing to ingest an empty campaign");
  }
  const Tiling tiling(config_.tile_size_m);
  // A campaign sweep belongs to the tile containing its centroid; sweeps
  // are expected to be tile-sized areas (a metro area per tile).
  geo::EnuPoint centroid{};
  for (const campaign::Measurement& m : dataset.readings) {
    centroid.east_m += m.position.east_m;
    centroid.north_m += m.position.north_m;
  }
  centroid.east_m /= static_cast<double>(dataset.readings.size());
  centroid.north_m /= static_cast<double>(dataset.readings.size());
  const TileKey tile = tiling.tile_of(centroid);

  // The raw I/Q capture is not database state: the CFT/AFT features it
  // feeds were computed at collection time. Every replica converts this
  // one normalized copy into its own columns.
  campaign::ChannelDataset normalized = dataset;
  for (campaign::Measurement& m : normalized.readings) m.iq = {};
  for (const NodeId id :
       replica_set(tile, config_.num_nodes, config_.replication)) {
    nodes_[id]->ingest_campaign(tile, normalized);
  }
  {
    const std::lock_guard lock(bootstrap_mutex_);
    bootstrap_[tile].push_back(std::move(normalized));
  }
  return tile;
}

campaign::ChannelDataset Cluster::normalized_campaign(
    TileKey tile, std::size_t index) const {
  const std::lock_guard lock(bootstrap_mutex_);
  const auto it = bootstrap_.find(tile);
  if (it == bootstrap_.end() || index >= it->second.size()) {
    throw std::out_of_range("cluster: no such bootstrap campaign");
  }
  return it->second[index];
}

std::vector<TileKey> Cluster::tiles() const {
  const std::lock_guard lock(bootstrap_mutex_);
  std::vector<TileKey> out;
  out.reserve(bootstrap_.size());
  for (const auto& [tile, campaigns] : bootstrap_) out.push_back(tile);
  return out;
}

std::vector<NodeId> Cluster::replicas_of(TileKey tile) const {
  return replica_set(tile, config_.num_nodes, config_.replication);
}

void Cluster::kill(NodeId id) {
  membership_.set_health(id, NodeHealth::kDead);
  // wipe() waits for in-flight handlers, so by the time kill() returns the
  // node is unreachable AND empty — clean fail-stop.
  node(id).wipe();
}

void Cluster::recover(NodeId id) {
  ClusterNode& target = node(id);
  membership_.set_health(id, NodeHealth::kSyncing);

  for (const TileKey tile : tiles()) {
    const auto replicas = replicas_of(tile);
    if (std::find(replicas.begin(), replicas.end(), id) == replicas.end()) {
      continue;  // not an owner
    }

    // Pull the tile from a ready peer, riding the same faulty transport as
    // everything else — recovery must survive drops and delays too.
    const std::string pull = encode_envelope(
        {.verb = "pull", .from = id, .tile = tile, .body = {}});
    runtime::Backoff backoff(config_.replication_backoff,
                             runtime::split_seed(0x7EC0BEEF, id));
    bool installed = false;
    for (int attempt = 0; attempt < 400 && !installed; ++attempt) {
      const Membership* m = membership_.snapshot();
      NodeId source = kClientNode;
      for (const NodeId n : replicas) {
        if (n != id && m->ready(n)) {
          source = n;
          break;
        }
      }
      if (source == kClientNode) break;  // nobody to pull from
      try {
        const Envelope reply =
            decode_envelope(transport_->send(source, pull));
        if (reply.verb == "state") {
          target.install_snapshot(tile, decode_tile_snapshot(reply.body));
          installed = true;
          break;
        }
      } catch (const TransportError&) {
        // dropped — retry below
      }
      std::this_thread::sleep_for(backoff.next());
    }

    if (!installed) {
      // No ready peer holds the tile (replication == 1 and the only copy
      // died with this node). Crowd uploads are gone; restore at least the
      // trusted bootstrap campaigns the harness retains — the archival
      // re-provisioning a real operator would perform.
      TileSnapshot bootstrap_only;
      {
        const std::lock_guard lock(bootstrap_mutex_);
        for (const campaign::ChannelDataset& dataset : bootstrap_.at(tile)) {
          auto& states = bootstrap_only.channels;
          const auto it = std::find_if(
              states.begin(), states.end(), [&](const core::ChannelState& s) {
                return s.channel() == dataset.channel;
              });
          if (it == states.end()) {
            states.emplace_back(dataset);
          } else {
            it->ingest(dataset);
          }
        }
      }
      target.install_snapshot(tile, std::move(bootstrap_only));
    }
  }

  membership_.set_health(id, NodeHealth::kReady);
}

}  // namespace waldo::cluster
