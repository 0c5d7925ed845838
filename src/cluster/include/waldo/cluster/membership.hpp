// Shared cluster membership: which nodes are alive, and in what state.
//
// A node is kReady (serving), kSyncing (revived, pulling state — accepts
// replication traffic but not client traffic) or kDead. The view publishes
// an immutable, epoch-stamped snapshot on every change. A reader takes one
// with a single atomic load: it takes no lock and writes no shared memory,
// so routers and nodes on the request path never block or slow each other.
// A writer builds the next snapshot under the writer mutex and publishes
// it with an atomic store.
//
// Snapshots are never freed before the view: set_health keeps every
// snapshot it published, so a pointer a reader took stays valid, and keeps
// what it held, for the view's lifetime. That costs one small allocation
// per health change, made at operator rate, not request rate.
//
// In this in-process tier the harness (cluster::Cluster) is the single
// writer — the seam where a real deployment would plug in its failure
// detector / control plane.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "waldo/cluster/tiling.hpp"

namespace waldo::cluster {

enum class NodeHealth : std::uint8_t { kDead = 0, kSyncing = 1, kReady = 2 };

struct Membership {
  std::uint64_t epoch = 0;
  std::vector<NodeHealth> health;  ///< indexed by NodeId

  [[nodiscard]] bool ready(NodeId node) const noexcept {
    return node < health.size() && health[node] == NodeHealth::kReady;
  }
  [[nodiscard]] bool alive(NodeId node) const noexcept {
    return node < health.size() && health[node] != NodeHealth::kDead;
  }
};

class MembershipView {
 public:
  /// All nodes start kReady.
  explicit MembershipView(NodeId num_nodes);

  MembershipView(const MembershipView&) = delete;
  MembershipView& operator=(const MembershipView&) = delete;

  /// Immutable point-in-time snapshot; never null, valid and unchanged for
  /// the view's lifetime.
  [[nodiscard]] const Membership* snapshot() const noexcept {
    return current_.load();
  }

  /// Publishes a new snapshot with `node` in `health`; bumps the epoch.
  void set_health(NodeId node, NodeHealth health);

 private:
  std::mutex writer_mutex_;
  /// Every snapshot ever published, oldest first; guarded by writer_mutex_.
  std::vector<std::unique_ptr<const Membership>> published_;
  std::atomic<const Membership*> current_;
};

}  // namespace waldo::cluster
