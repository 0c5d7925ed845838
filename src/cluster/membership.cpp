#include "waldo/cluster/membership.hpp"

#include <stdexcept>

namespace waldo::cluster {

MembershipView::MembershipView(NodeId num_nodes) {
  auto initial = std::make_unique<Membership>();
  initial->health.assign(num_nodes, NodeHealth::kReady);
  published_.push_back(std::move(initial));
  current_.store(published_.back().get());
}

void MembershipView::set_health(NodeId node, NodeHealth health) {
  const std::lock_guard lock(writer_mutex_);
  const Membership& now = *published_.back();
  if (node >= now.health.size()) {
    throw std::out_of_range("membership: unknown node id");
  }
  auto next = std::make_unique<Membership>(now);
  next->epoch += 1;
  next->health[node] = health;
  published_.push_back(std::move(next));
  current_.store(published_.back().get());
}

}  // namespace waldo::cluster
