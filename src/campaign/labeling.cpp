#include "waldo/campaign/labeling.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "waldo/geo/grid_index.hpp"
#include "waldo/ml/metrics.hpp"

namespace waldo::campaign {

namespace {

// Both kernels label exactly as one geo::GridCells radius query per
// poisoner (a reading above the threshold) does; PairRule::poisons is that
// query's test for one pair. label_readings decides whole pairs of cells
// at once; DESIGN.md ("Algorithm 1 labeling") shows why its box bounds
// never disagree with the pair test.

struct Box {
  double min_e = std::numeric_limits<double>::infinity();
  double max_e = -std::numeric_limits<double>::infinity();
  double min_n = std::numeric_limits<double>::infinity();
  double max_n = -std::numeric_limits<double>::infinity();

  void add(const geo::EnuPoint& p) noexcept {
    min_e = std::min(min_e, p.east_m);
    max_e = std::max(max_e, p.east_m);
    min_n = std::min(min_n, p.north_m);
    max_n = std::max(max_n, p.north_m);
  }
};

/// Lower bound on |fl(q - p)| over q in [q_min, q_max], p in [p_min, p_max].
[[nodiscard]] double gap(double q_min, double q_max, double p_min,
                         double p_max) noexcept {
  if (q_min > p_max) return q_min - p_max;
  if (q_max < p_min) return p_min - q_max;
  return 0.0;
}

/// Upper bound on |fl(q - p)| over the same intervals.
[[nodiscard]] double reach(double q_min, double q_max, double p_min,
                           double p_max) noexcept {
  return std::max(std::abs(q_max - p_min), std::abs(q_min - p_max));
}

/// Cells a radius query visits, per axis (inclusive).
struct Range {
  std::int64_t lo_e, hi_e, lo_n, hi_n;

  [[nodiscard]] bool covers(std::int64_t e, std::int64_t n) const noexcept {
    return lo_e <= e && e <= hi_e && lo_n <= n && n <= hi_n;
  }
};

[[nodiscard]] bool is_poisoner(double rss_dbm,
                               const LabelingConfig& config) noexcept {
  return !(rss_dbm + config.correction_db <= config.threshold_dbm);
}

[[nodiscard]] bool is_finite(const geo::EnuPoint& p) noexcept {
  return std::isfinite(p.east_m) && std::isfinite(p.north_m);
}

/// The one pair test of Algorithm 1, shared by both kernels so they cannot
/// drift apart: what a radius query of radius r around a poisoner accepts.
class PairRule {
 public:
  explicit PairRule(double r) noexcept
      : r_(r), r2_(r * r), cell_m_(std::max(1.0, r / 4.0)) {}

  /// False for a negative or NaN radius, which reaches no other reading.
  [[nodiscard]] bool reaches() const noexcept { return r_ >= 0.0; }

  [[nodiscard]] std::int64_t cell_of(double v) const noexcept {
    return geo::cell_coordinate(v, cell_m_);
  }

  /// Cells a radius query around (e, n) visits for e, n taken from the
  /// arguments: a point's window is window(e, e, n, n).
  [[nodiscard]] Range window(double lo_e, double hi_e, double lo_n,
                             double hi_n) const noexcept {
    return Range{cell_of(lo_e - r_), cell_of(hi_e + r_), cell_of(lo_n - r_),
                 cell_of(hi_n + r_)};
  }

  /// True iff the poisoner at p makes the reading at q NOT SAFE: the
  /// radius reaches, both points are finite, de*de + dn*dn <= r*r with
  /// de = q - p, and q's cell lies in p's window on both axes.
  [[nodiscard]] bool poisons(const geo::EnuPoint& p,
                             const geo::EnuPoint& q) const noexcept {
    if (!reaches() || !is_finite(p) || !is_finite(q)) return false;
    const double de = q.east_m - p.east_m;
    const double dn = q.north_m - p.north_m;
    return de * de + dn * dn <= r2_ &&
           window(p.east_m, p.east_m, p.north_m, p.north_m)
               .covers(cell_of(q.east_m), cell_of(q.north_m));
  }

  [[nodiscard]] double r2() const noexcept { return r2_; }

 private:
  double r_, r2_, cell_m_;
};

/// A non-empty cell. Its readings are ids[begin, end): poisoners in
/// [begin, mid), quiet readings (the ones left to label) in [mid, end).
struct Cell {
  std::int64_t ce = 0, cn = 0;
  std::uint32_t begin = 0, mid = 0, end = 0;
  std::uint32_t unlabelled = 0;  ///< quiet readings not yet kNotSafe
  Box poisoners = {}, quiet = {};
};

struct KeyHash {
  [[nodiscard]] std::size_t operator()(
      const std::pair<std::int64_t, std::int64_t>& k) const noexcept {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(k.first) * 0x9E3779B97F4A7C15ULL ^
        static_cast<std::uint64_t>(k.second) * 0xC2B2AE3D27D4EB4FULL);
  }
};

}  // namespace

std::vector<int> label_readings(std::span<const geo::EnuPoint> positions,
                                std::span<const double> rss_dbm,
                                const LabelingConfig& config) {
  if (positions.size() != rss_dbm.size()) {
    throw std::invalid_argument("label_readings: size mismatch");
  }
  if (positions.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("label_readings: at most 2^32 readings");
  }
  std::vector<int> labels(positions.size(), ml::kSafe);
  bool any_poisoner = false;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (!is_poisoner(rss_dbm[i], config)) continue;
    labels[i] = ml::kNotSafe;
    any_poisoner = true;
  }
  const PairRule rule(config.separation_m);
  if (!any_poisoner || !rule.reaches()) return labels;
  const double r2 = rule.r2();

  // Bucket the readings, sort the cells by (east, north) and lay the ids
  // out cell by cell. Readings at non-finite coordinates never pass the
  // distance test, so they stay out.
  std::unordered_map<std::pair<std::int64_t, std::int64_t>, std::uint32_t,
                     KeyHash>
      slot_of;
  std::vector<Cell> cells;
  std::vector<std::uint32_t> slots(positions.size());
  std::size_t unlabelled = 0;
  std::pair<std::int64_t, std::int64_t> last_key;
  std::uint32_t last_slot = 0;
  for (std::uint32_t i = 0; i < positions.size(); ++i) {
    const geo::EnuPoint& p = positions[i];
    if (!is_finite(p)) continue;
    const std::pair key{rule.cell_of(p.east_m), rule.cell_of(p.north_m)};
    // Consecutive readings of a drive mostly share a cell.
    if (cells.empty() || key != last_key) {
      const auto [it, added] =
          slot_of.try_emplace(key, static_cast<std::uint32_t>(cells.size()));
      if (added) cells.push_back(Cell{.ce = key.first, .cn = key.second});
      last_key = key;
      last_slot = it->second;
    }
    Cell& c = cells[last_slot];
    ++c.end;
    if (labels[i] == ml::kSafe) {
      ++c.unlabelled;
      ++unlabelled;
      c.quiet.add(p);
    } else {
      ++c.mid;
      c.poisoners.add(p);
    }
    slots[i] = last_slot;
  }
  std::vector<std::uint32_t> rank(cells.size());
  {
    std::vector<std::uint32_t> order(cells.size());
    for (std::uint32_t s = 0; s < order.size(); ++s) order[s] = s;
    std::sort(order.begin(), order.end(), [&cells](auto a, auto b) {
      return std::pair{cells[a].ce, cells[a].cn} <
             std::pair{cells[b].ce, cells[b].cn};
    });
    std::vector<Cell> sorted;
    sorted.reserve(cells.size());
    std::uint32_t offset = 0;
    for (const std::uint32_t s : order) {
      rank[s] = static_cast<std::uint32_t>(sorted.size());
      Cell c = cells[s];
      const std::uint32_t size = c.end;
      c.begin = offset;
      c.mid += offset;
      c.end = offset + size;
      offset += size;
      sorted.push_back(c);
    }
    cells = std::move(sorted);
  }
  // Fill each cell's ids: poisoners from the front, quiet from `mid`.
  std::vector<std::uint32_t> ids(positions.size());
  {
    std::vector<std::uint32_t> next_poisoner(cells.size());
    std::vector<std::uint32_t> next_quiet(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      next_poisoner[c] = cells[c].begin;
      next_quiet[c] = cells[c].mid;
    }
    for (std::uint32_t i = 0; i < positions.size(); ++i) {
      if (!is_finite(positions[i])) continue;
      const std::uint32_t c = rank[slots[i]];
      ids[labels[i] == ml::kSafe ? next_quiet[c]++ : next_poisoner[c]++] = i;
    }
  }

  // First pass: mark every quiet cell that all of some poisoner cell's
  // readings reach as a whole. Second pass: test each remaining quiet
  // reading against the poisoners of each cell in reach, pair by pair.
  for (const bool whole_cells : {true, false}) {
    for (const Cell& source : cells) {
      if (unlabelled == 0) return labels;
      if (source.mid == source.begin) continue;
      const Box& from = source.poisoners;
      // The cells of p - r and of p + r grow with p, so the union of the
      // poisoners' windows and their intersection follow from the box.
      const Range any =
          rule.window(from.min_e, from.max_e, from.min_n, from.max_n);
      const Range all =
          rule.window(from.max_e, from.min_e, from.max_n, from.min_n);
      for (std::int64_t ce = any.lo_e; ce <= any.hi_e; ++ce) {
        auto it = std::lower_bound(
            cells.begin(), cells.end(), std::pair{ce, any.lo_n},
            [](const Cell& c, const auto& key) {
              return std::pair{c.ce, c.cn} < key;
            });
        for (; it != cells.end() && it->ce == ce && it->cn <= any.hi_n; ++it) {
          Cell& target = *it;
          if (target.unlabelled == 0) continue;
          const Box& to = target.quiet;
          const double ge = gap(to.min_e, to.max_e, from.min_e, from.max_e);
          const double gn = gap(to.min_n, to.max_n, from.min_n, from.max_n);
          if (ge * ge + gn * gn > r2) continue;  // no pair in reach
          if (whole_cells) {
            const double re = reach(to.min_e, to.max_e, from.min_e, from.max_e);
            const double rn = reach(to.min_n, to.max_n, from.min_n, from.max_n);
            if (re * re + rn * rn > r2 || !all.covers(target.ce, target.cn)) {
              continue;
            }
            for (std::uint32_t k = target.mid; k < target.end; ++k) {
              labels[ids[k]] = ml::kNotSafe;
            }
            unlabelled -= target.unlabelled;
            target.unlabelled = 0;
            continue;
          }
          for (std::uint32_t k = target.mid;
               k < target.end && target.unlabelled > 0; ++k) {
            int& label = labels[ids[k]];
            if (label == ml::kNotSafe) continue;
            const geo::EnuPoint& q = positions[ids[k]];
            for (std::uint32_t s = source.begin; s < source.mid; ++s) {
              if (rule.poisons(positions[ids[s]], q)) {
                label = ml::kNotSafe;
                --target.unlabelled;
                --unlabelled;
                break;
              }
            }
          }
        }
      }
    }
  }
  return labels;
}

void extend_labels(std::span<const geo::EnuPoint> positions,
                   std::span<const double> rss_dbm,
                   const LabelingConfig& config, std::vector<int>& labels) {
  // Longest append extended in place; a longer one is relabelled. An
  // extension tests every reading against each appended one, so its cost
  // grows with n * append while a relabel's grows with n. On channel 15
  // grown as bench_micro_pipeline grows it (Release, GCC 12.2, 4-thread
  // host, medians of 3), extending by 32 takes 0.13 ms at 5,282 readings
  // and 0.17 ms at 15,000, against 0.26 and 0.92 ms for a relabel; by 64
  // it takes 0.25 ms at 5,282, as long as a relabel.
  constexpr std::size_t kMaxAppend = 32;
  if (positions.size() != rss_dbm.size()) {
    throw std::invalid_argument("extend_labels: size mismatch");
  }
  if (labels.size() > positions.size()) {
    throw std::invalid_argument("extend_labels: more labels than readings");
  }
  const std::size_t old_n = labels.size();
  const std::size_t n = positions.size();
  if (old_n == 0 || n - old_n > kMaxAppend) {
    labels = label_readings(positions, rss_dbm, config);
    return;
  }
  // Appended readings, split by their own label.
  std::vector<std::size_t> new_poisoners, new_quiet;
  for (std::size_t i = old_n; i < n; ++i) {
    (is_poisoner(rss_dbm[i], config) ? new_poisoners : new_quiet).push_back(i);
  }
  labels.resize(n, ml::kSafe);
  for (const std::size_t i : new_poisoners) labels[i] = ml::kNotSafe;
  const PairRule rule(config.separation_m);
  if (!rule.reaches()) return;
  // A label changes only through a pair with an appended reading in it:
  // a safe reading next to a new poisoner, or a new quiet reading next to
  // an old poisoner. New pairs of old readings do not exist.
  for (std::size_t j = 0; j < n; ++j) {
    if (labels[j] == ml::kSafe) {
      for (const std::size_t i : new_poisoners) {
        if (rule.poisons(positions[i], positions[j])) {
          labels[j] = ml::kNotSafe;
          break;
        }
      }
    } else if (j < old_n && is_poisoner(rss_dbm[j], config)) {
      for (const std::size_t i : new_quiet) {
        if (labels[i] == ml::kSafe &&
            rule.poisons(positions[j], positions[i])) {
          labels[i] = ml::kNotSafe;
        }
      }
    }
  }
}

double safe_fraction(std::span<const int> labels) noexcept {
  if (labels.empty()) return 0.0;
  std::size_t safe = 0;
  for (const int l : labels) safe += (l == ml::kSafe) ? 1 : 0;
  return static_cast<double>(safe) / static_cast<double>(labels.size());
}

}  // namespace waldo::campaign
