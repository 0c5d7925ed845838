// Cluster — the in-process harness that assembles the tier: N nodes, a
// shared membership view, a loopback Transport with fault injection, and
// the bootstrap / kill / recover lifecycle a control plane would drive.
//
// Everything observable about the cluster is reachable from here:
// construct, ingest campaigns (bootstrap goes to every replica as the
// same normalized CSV bytes, so replicas parse identical state), hand the
// transport + membership to as many ClusterRouter instances as you like,
// then kill/recover nodes while traffic flows.
//
// kill(n) marks the node dead and wipes its state — process-crash
// semantics, not a graceful drain. recover(n) re-admits it as kSyncing,
// pulls each owned tile's TileSnapshot (channel states + dedup window)
// from a ready replica (through the fault-injected transport, with
// retries), installs it, and only then marks the node kReady. With
// replication >= 2 a recovered node converges to byte-identical datasets
// and pending pools; with replication == 1 a kill loses the tile's crowd
// uploads by construction (single copy) and recover falls back to the
// bootstrap campaigns the harness retains (nodes keep no copy of them).
//
// Failure model (docs/CLUSTER.md): single failure at a time, fail-stop,
// shared membership truth. The Transport seam and the verb set are where
// sockets, gossip membership and anti-entropy would slot in.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "waldo/campaign/measurement.hpp"
#include "waldo/cluster/membership.hpp"
#include "waldo/cluster/node.hpp"
#include "waldo/cluster/transport.hpp"
#include "waldo/core/model_constructor.hpp"

namespace waldo::cluster {

struct ClusterConfig {
  NodeId num_nodes = 1;
  std::size_t replication = 1;
  double tile_size_m = 50'000.0;
  core::ModelConstructorConfig constructor_config;
  campaign::LabelingConfig labeling;
  core::UploadPolicy upload_policy;
  /// Faults the loopback transport injects on every message (client,
  /// replication and recovery traffic alike).
  FaultPlan faults;
  /// Retry pacing for node-to-node replication and recovery pulls.
  runtime::BackoffConfig replication_backoff{
      .base = std::chrono::nanoseconds{100'000},
      .cap = std::chrono::nanoseconds{5'000'000}};
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] ClusterTopology topology() const;
  [[nodiscard]] Transport& transport() noexcept;
  [[nodiscard]] MembershipView& membership() noexcept { return membership_; }
  [[nodiscard]] ClusterNode& node(NodeId id);

  /// Bootstrap: normalizes the dataset through its CSV form (the archival
  /// format — replicas must parse identical bytes) and ingests it on every
  /// replica of the covering tile. Not fault-injected: bootstrap models
  /// offline provisioning, not live traffic. Returns the tile.
  TileKey ingest_campaign(const campaign::ChannelDataset& dataset);

  /// The normalized dataset exactly as replicas ingested it — the input a
  /// determinism test must replay.
  [[nodiscard]] campaign::ChannelDataset normalized_campaign(
      TileKey tile, std::size_t index) const;

  /// Tiles that have been bootstrapped, in key order.
  [[nodiscard]] std::vector<TileKey> tiles() const;
  [[nodiscard]] std::vector<NodeId> replicas_of(TileKey tile) const;

  /// Fail-stop: membership -> kDead (routers and peers stop using it,
  /// in-flight sends start failing), then the state is wiped.
  void kill(NodeId id);

  /// Re-admits a killed node: kSyncing, per-tile snapshot pull + install
  /// (retried through the faulty transport), then kReady. Safe to call
  /// while client traffic is flowing.
  void recover(NodeId id);

 private:
  class Loopback;

  ClusterConfig config_;
  MembershipView membership_;
  FaultInjector injector_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  std::unique_ptr<Loopback> transport_;

  mutable std::mutex bootstrap_mutex_;
  std::map<TileKey, std::vector<std::string>> bootstrap_csvs_;
};

}  // namespace waldo::cluster
