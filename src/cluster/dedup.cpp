#include "waldo/cluster/dedup.hpp"

#include <algorithm>

#include "waldo/cluster/router.hpp"

namespace waldo::cluster {

static_assert(kDedupHorizon >= RouterConfig{}.deadline,
              "a tile must remember a request id for as long as the "
              "default router may retry it");

std::optional<core::UploadResult> DedupWindow::find(
    std::uint64_t request_id) const {
  const auto it = by_id_.find(request_id);
  if (it == by_id_.end()) return std::nullopt;
  return it->second.ledger;
}

void DedupWindow::expire(Clock::time_point now) {
  while (!order_.empty()) {
    const auto it = by_id_.find(order_.front());
    if (now - it->second.applied <= kDedupHorizon) break;
    by_id_.erase(it);
    order_.pop_front();
  }
}

void DedupWindow::remember(std::uint64_t request_id,
                           const core::UploadResult& ledger,
                           Clock::time_point now) {
  expire(now);
  if (by_id_.try_emplace(request_id, Entry{ledger, now}).second) {
    order_.push_back(request_id);
  }
}

std::vector<DedupRecord> DedupWindow::records(Clock::time_point now) const {
  std::vector<DedupRecord> out;
  out.reserve(order_.size());
  for (const std::uint64_t id : order_) {
    const Entry& e = by_id_.at(id);
    const auto age = std::chrono::duration_cast<std::chrono::nanoseconds>(
        now - e.applied);
    out.push_back({.request_id = id,
                   .age_ns = static_cast<std::uint64_t>(
                       std::max<std::int64_t>(0, age.count())),
                   .ledger = e.ledger});
  }
  return out;
}

void DedupWindow::restore(const std::vector<DedupRecord>& records,
                          Clock::time_point now) {
  by_id_.clear();
  order_.clear();
  const auto horizon_ns = static_cast<std::uint64_t>(
      std::chrono::nanoseconds(kDedupHorizon).count());
  for (const DedupRecord& r : records) {
    if (r.age_ns > horizon_ns) continue;
    const auto applied =
        now - std::chrono::nanoseconds(static_cast<std::int64_t>(r.age_ns));
    if (by_id_.try_emplace(r.request_id, Entry{r.ledger, applied}).second) {
      order_.push_back(r.request_id);
    }
  }
}

}  // namespace waldo::cluster
