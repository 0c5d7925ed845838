#include "waldo/ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "waldo/codec/codec.hpp"
#include "waldo/ml/metrics.hpp"

namespace waldo::ml {

namespace {

[[nodiscard]] double gini(std::size_t safe, std::size_t total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(safe) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

[[nodiscard]] int majority(std::span<const int> y,
                           std::span<const std::size_t> idx) {
  std::size_t safe = 0;
  for (const std::size_t i : idx) safe += (y[i] == kSafe) ? 1 : 0;
  // Ties break toward "not safe" — the conservative direction.
  return 2 * safe > idx.size() ? kSafe : kNotSafe;
}

}  // namespace

void DecisionTree::fit(const Matrix& x, std::span<const int> y) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("decision tree: bad training set");
  }
  nodes_.clear();
  depth_ = 0;
  std::vector<std::size_t> idx(x.rows());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  build(x, y, idx, 0);
}

std::int32_t DecisionTree::build(const Matrix& x, std::span<const int> y,
                                 std::vector<std::size_t>& idx,
                                 std::size_t depth) {
  depth_ = std::max(depth_, depth);
  const auto node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();

  std::size_t safe = 0;
  for (const std::size_t i : idx) safe += (y[i] == kSafe) ? 1 : 0;
  const bool pure = (safe == 0 || safe == idx.size());

  if (pure || depth >= config_.max_depth ||
      idx.size() < config_.min_samples_split) {
    nodes_[static_cast<std::size_t>(node_id)].label = majority(y, idx);
    return node_id;
  }

  // Exhaustive best Gini split over all features and boundaries.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, int>> column(idx.size());

  for (std::size_t f = 0; f < x.cols(); ++f) {
    for (std::size_t k = 0; k < idx.size(); ++k) {
      column[k] = {x(idx[k], f), y[idx[k]]};
    }
    std::sort(column.begin(), column.end());
    std::size_t left_safe = 0;
    std::size_t left_n = 0;
    for (std::size_t k = 0; k + 1 < column.size(); ++k) {
      left_safe += (column[k].second == kSafe) ? 1 : 0;
      ++left_n;
      if (column[k].first == column[k + 1].first) continue;
      const std::size_t right_n = column.size() - left_n;
      if (left_n < config_.min_samples_leaf ||
          right_n < config_.min_samples_leaf) {
        continue;
      }
      const std::size_t right_safe = safe - left_safe;
      const double score =
          (static_cast<double>(left_n) * gini(left_safe, left_n) +
           static_cast<double>(right_n) * gini(right_safe, right_n)) /
          static_cast<double>(column.size());
      if (score < best_score) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = (column[k].first + column[k + 1].first) / 2.0;
      }
    }
  }

  if (best_feature < 0) {
    nodes_[static_cast<std::size_t>(node_id)].label = majority(y, idx);
    return node_id;
  }

  std::vector<std::size_t> left_idx, right_idx;
  for (const std::size_t i : idx) {
    (x(i, static_cast<std::size_t>(best_feature)) <= best_threshold
         ? left_idx
         : right_idx)
        .push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) {
    nodes_[static_cast<std::size_t>(node_id)].label = majority(y, idx);
    return node_id;
  }

  const std::int32_t left = build(x, y, left_idx, depth + 1);
  const std::int32_t right = build(x, y, right_idx, depth + 1);
  Node& node = nodes_[static_cast<std::size_t>(node_id)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

int DecisionTree::predict(std::span<const double> x) const {
  if (nodes_.empty()) throw std::logic_error("decision tree: not trained");
  std::int32_t cur = 0;
  for (;;) {
    const Node& node = nodes_[static_cast<std::size_t>(cur)];
    if (node.feature < 0) return node.label;
    const auto f = static_cast<std::size_t>(node.feature);
    if (f >= x.size()) {
      throw std::invalid_argument("decision tree: dimension mismatch");
    }
    cur = (x[f] <= node.threshold) ? node.left : node.right;
  }
}

void DecisionTree::save(codec::Writer& out) const {
  out.u8(static_cast<std::uint8_t>(WireFamily::kDecisionTree));
  out.u64(nodes_.size());
  out.u64(depth_);
  for (const Node& n : nodes_) {
    out.i64(n.feature);
    out.f64(n.threshold);
    out.i64(n.left);
    out.i64(n.right);
    out.i64(n.label);
  }
}

void DecisionTree::load(codec::Reader& in) {
  if (in.u8() != static_cast<std::uint8_t>(WireFamily::kDecisionTree)) {
    throw codec::Error("payload is not a decision tree");
  }
  // Every node is at least 12 payload bytes (4 varints + threshold).
  const std::size_t node_count = in.count(12);
  depth_ = static_cast<std::size_t>(in.u64());
  nodes_.assign(node_count, Node{});
  for (std::size_t i = 0; i < node_count; ++i) {
    Node& n = nodes_[i];
    n.feature = static_cast<int>(in.i64());
    n.threshold = in.f64();
    n.left = static_cast<std::int32_t>(in.i64());
    n.right = static_cast<std::int32_t>(in.i64());
    n.label = static_cast<int>(in.i64());
    // The builder always assigns children larger ids than their parent;
    // require that here so a crafted descriptor can neither index out of
    // bounds nor form a cycle that predict() would walk forever.
    if (n.feature >= 0) {
      const auto self = static_cast<std::int64_t>(i);
      const auto limit = static_cast<std::int64_t>(node_count);
      if (n.left <= self || n.left >= limit || n.right <= self ||
          n.right >= limit) {
        throw codec::Error("decision tree child index out of range");
      }
    }
  }
}

}  // namespace waldo::ml
