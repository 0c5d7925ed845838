#include "waldo/core/channel_state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "waldo/ml/stats.hpp"
#include "waldo/runtime/reuse.hpp"

namespace waldo::core {

namespace {

/// No point on Earth is farther than this from a local origin, in metres.
constexpr double kMaxCoordinateM = 2.0e7;

/// A finite power at a position that could be on Earth. Anything else is
/// rejected before it can reach the index or the pending pool.
[[nodiscard]] bool plausible(const campaign::Measurement& m) {
  return std::abs(m.position.east_m) <= kMaxCoordinateM &&
         std::abs(m.position.north_m) <= kMaxCoordinateM &&
         std::isfinite(m.rss_dbm);
}

[[nodiscard]] double screening_cell_m(const UploadPolicy& policy) {
  return std::max(50.0, policy.neighbourhood_m);
}

void index_readings(geo::GridCells& index,
                    const StoredColumn<geo::EnuPoint>& positions,
                    std::size_t first) {
  if (positions.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("a channel holds at most 2^32 readings");
  }
  for (std::size_t i = first; i < positions.size(); ++i) {
    index.insert(static_cast<std::uint32_t>(i), positions[i]);
  }
}

using Verdict = ChannelState::Verdict;

/// The read-only pass over one batch: each reading's verdict against the
/// stored dataset as it stands. `for_each_neighbour(center, fn)` calls
/// fn(rss) with the RSS of every stored reading within
/// policy.neighbourhood_m of `center`, exactly as geo::GridCells::
/// for_each_within over the stored positions finds them, in any order.
template <typename ForEachNeighbour>
std::vector<Verdict> screen_batch(
    const ForEachNeighbour& for_each_neighbour, const UploadPolicy& policy,
    std::span<const campaign::Measurement> readings) {
  // Correlation check against the stored neighbourhood (Section 3.4 /
  // secure collaborative sensing): an upload deviating wildly from what
  // nearby trusted readings saw is rejected; an upload nobody can vouch
  // for is left to the pending pool.
  std::vector<Verdict> verdicts;
  verdicts.reserve(readings.size());
  std::vector<double> neighbour_rss;  // reused, and selected in place
  for (const campaign::Measurement& m : readings) {
    if (!plausible(m)) {
      verdicts.push_back(Verdict::kReject);
      continue;
    }
    neighbour_rss.clear();
    for_each_neighbour(m.position,
                       [&](double rss) { neighbour_rss.push_back(rss); });
    if (neighbour_rss.size() < policy.min_neighbours) {
      verdicts.push_back(Verdict::kUnvouched);
      continue;
    }
    // The median is an order statistic, so the order neighbours are
    // visited in cannot change a verdict.
    const double median = ml::quantile_in_place(neighbour_rss, 0.5);
    verdicts.push_back(std::abs(m.rss_dbm - median) > policy.max_deviation_db
                           ? Verdict::kReject
                           : Verdict::kAccept);
  }
  return verdicts;
}

/// The mutating step of one batch, in batch order: counts the rejects,
/// passes each accepted reading to `accepted`, and settles each unvouched
/// one against `pending` — promoted with the parked readings that
/// corroborate it (they follow it into `accepted`), or parked.
UploadResult settle_batch(std::vector<PendingReading>& pending,
                          const UploadPolicy& policy,
                          std::span<const campaign::Measurement> readings,
                          std::span<const Verdict> verdicts,
                          const std::string& contributor,
                          std::vector<StoredReading>& accepted) {
  UploadResult result;
  // A parked reading whose squared offset exceeds the padded reach is
  // farther than corroboration_m by more than the rounding of either
  // formula, so skipping it cannot change a verdict; the hypot test below
  // decides the rest. A negative or NaN radius disables the prefilter.
  const double reach = policy.corroboration_m * (1.0 + 1e-9) + 1e-6;
  const double reach2 = policy.corroboration_m >= 0.0
                            ? reach * reach
                            : std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < readings.size(); ++i) {
    const campaign::Measurement& m = readings[i];
    if (verdicts[i] == Verdict::kReject) {
      ++result.rejected;
      continue;
    }
    if (verdicts[i] == Verdict::kAccept) {
      accepted.push_back(StoredReading::of(m));
      ++result.accepted;
      continue;
    }

    // Unexplored territory: look for corroborating pending readings from
    // other contributors.
    std::vector<std::size_t> corroborators;
    std::vector<const std::string*> others;  // distinct other contributors
    for (std::size_t p = 0; p < pending.size(); ++p) {
      const PendingReading& pr = pending[p];
      const double de = pr.reading.position.east_m - m.position.east_m;
      const double dn = pr.reading.position.north_m - m.position.north_m;
      if (de * de + dn * dn > reach2 ||
          std::hypot(de, dn) > policy.corroboration_m) {
        continue;
      }
      if (std::abs(pr.reading.rss_dbm - m.rss_dbm) >
          policy.max_deviation_db) {
        continue;
      }
      corroborators.push_back(p);
      if (pr.contributor != contributor &&
          std::none_of(others.begin(), others.end(),
                       [&pr](const std::string* o) {
                         return *o == pr.contributor;
                       })) {
        others.push_back(&pr.contributor);
      }
    }
    if (1 + others.size() >= policy.min_corroborators) {
      // Promote the agreeing cluster plus this reading.
      accepted.push_back(StoredReading::of(m));
      ++result.accepted;
      for (auto rit = corroborators.rbegin(); rit != corroborators.rend();
           ++rit) {
        accepted.push_back(pending[*rit].reading);
        ++result.accepted;  // promoted into the trusted store now
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(*rit));
      }
    } else {
      pending.push_back(PendingReading{StoredReading::of(m), contributor});
      ++result.pending;
    }
  }
  return result;
}

void encode_reading(codec::Writer& out, const StoredReading& r) {
  out.f64(r.position.east_m);
  out.f64(r.position.north_m);
  out.f64(r.rss_dbm);
  out.f64(r.cft_db);
  out.f64(r.aft_db);
}

/// Five f64 fields.
constexpr std::size_t kReadingBytes = 5 * 8;

[[nodiscard]] StoredReading decode_reading(codec::Reader& in) {
  StoredReading r;
  r.position.east_m = in.f64();
  r.position.north_m = in.f64();
  r.rss_dbm = in.f64();
  r.cft_db = in.f64();
  r.aft_db = in.f64();
  return r;
}

}  // namespace

UploadResult screen_upload(const campaign::ChannelDataset& stored,
                           std::vector<PendingReading>& pending,
                           const UploadPolicy& policy,
                           std::span<const campaign::Measurement> readings,
                           const std::string& contributor,
                           std::vector<campaign::Measurement>& accepted) {
  if (readings.empty()) return {};
  // One linear pass over `stored` per reading, applying
  // GridCells::for_each_within's test as it stands: the squared distance
  // within r*r, then the reading's cell within [cell(c - r), cell(c + r)]
  // on both axes, for cells of the index's size. No radius below 0
  // matches.
  const double r = policy.neighbourhood_m;
  const double cell_m = screening_cell_m(policy);
  const auto neighbours = [&](const geo::EnuPoint& c, const auto& fn) {
    if (r < 0.0) return;
    const double r2 = r * r;
    const std::int64_t lo_e = geo::cell_coordinate(c.east_m - r, cell_m);
    const std::int64_t hi_e = geo::cell_coordinate(c.east_m + r, cell_m);
    const std::int64_t lo_n = geo::cell_coordinate(c.north_m - r, cell_m);
    const std::int64_t hi_n = geo::cell_coordinate(c.north_m + r, cell_m);
    for (const campaign::Measurement& s : stored.readings) {
      const geo::EnuPoint& p = s.position;
      const double de = p.east_m - c.east_m;
      const double dn = p.north_m - c.north_m;
      if (!(de * de + dn * dn <= r2)) continue;
      const std::int64_t ce = geo::cell_coordinate(p.east_m, cell_m);
      const std::int64_t cn = geo::cell_coordinate(p.north_m, cell_m);
      if (lo_e <= ce && ce <= hi_e && lo_n <= cn && cn <= hi_n) {
        fn(s.rss_dbm);
      }
    }
  };
  std::vector<StoredReading> trusted;
  const UploadResult result =
      settle_batch(pending, policy, readings,
                   screen_batch(neighbours, policy, readings), contributor,
                   trusted);
  for (const StoredReading& t : trusted) accepted.push_back(t.measurement());
  return result;
}

ChannelState::ChannelState(const campaign::ChannelDataset& trusted) {
  ingest(trusted);
}

template <typename T>
void StoredColumn<T>::copy_to(std::vector<T>& out) const {
  runtime::resize_reused(out, size_);
  auto it = out.begin();
  for (const std::vector<T>& block : blocks_) {
    it = std::copy(block.begin(), block.end(), it);
  }
}

template class StoredColumn<geo::EnuPoint>;
template class StoredColumn<double>;

void ChannelState::copy_columns(int num_features,
                                TrainingColumns& into) const {
  if (num_features < kMinFeatures || num_features > kMaxFeatures) {
    throw std::invalid_argument("feature count must be in [1, 4]");
  }
  into.channel = channel_;
  positions_.copy_to(into.positions);
  rss_dbm_.copy_to(into.rss_dbm);
  if (num_features >= 3) {
    cft_db_.copy_to(into.cft_db);
  } else {
    into.cft_db.clear();
  }
  if (num_features >= 4) {
    aft_db_.copy_to(into.aft_db);
  } else {
    into.aft_db.clear();
  }
}

campaign::ChannelDataset ChannelState::dataset() const {
  campaign::ChannelDataset out{.channel = channel_,
                               .sensor_name = sensor_name_,
                               .readings = {}};
  out.readings.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    out.readings.push_back(reading(i).measurement());
  }
  return out;
}

StoredReading ChannelState::reading(std::size_t i) const {
  return {positions_[i], rss_dbm_[i], cft_db_[i], aft_db_[i]};
}

void ChannelState::append(const StoredReading& r) {
  positions_.push_back(r.position);
  rss_dbm_.push_back(r.rss_dbm);
  cft_db_.push_back(r.cft_db);
  aft_db_.push_back(r.aft_db);
}

void ChannelState::ingest(const campaign::ChannelDataset& trusted) {
  const std::size_t first = size();
  if (first == 0) {
    channel_ = trusted.channel;
    sensor_name_ = trusted.sensor_name;
  }
  for (const campaign::Measurement& m : trusted.readings) {
    append(StoredReading::of(m));
  }
  if (index_) index_readings(*index_, positions_, first);
  accepted_since_build_ = 0;
}

std::optional<std::vector<ChannelState::Verdict>> ChannelState::screen(
    const UploadPolicy& policy,
    std::span<const campaign::Measurement> readings) const {
  if (!index_) return std::nullopt;
  const auto position_of = [this](std::uint32_t j) -> const geo::EnuPoint& {
    return positions_[j];
  };
  const auto neighbours = [&](const geo::EnuPoint& center, const auto& fn) {
    index_->for_each_within(
        center, policy.neighbourhood_m, position_of,
        [&](std::uint32_t j) { fn(rss_dbm_[j]); });
  };
  return screen_batch(neighbours, policy, readings);
}

ChannelState::Applied ChannelState::apply(
    const UploadPolicy& policy,
    std::span<const campaign::Measurement> readings,
    const std::string& contributor, std::span<const Verdict> verdicts) {
  if (verdicts.size() != readings.size()) {
    throw std::invalid_argument("apply needs one verdict per reading");
  }
  std::vector<StoredReading> accepted;
  Applied out;
  out.ledger = settle_batch(pending_, policy, readings, verdicts, contributor,
                            accepted);
  out.ledger.ticket = uploads_applied_++;
  if (!accepted.empty()) {
    const std::size_t first = size();
    for (const StoredReading& r : accepted) append(r);
    if (index_) index_readings(*index_, positions_, first);
    accepted_since_build_ += out.ledger.accepted;
    if (accepted_since_build_ >= policy.rebuild_threshold) {
      out.model_stale = true;
      accepted_since_build_ = 0;
    }
  }
  return out;
}

ChannelState::Applied ChannelState::upload(
    const UploadPolicy& policy,
    std::span<const campaign::Measurement> readings,
    const std::string& contributor) {
  // The cell size only tunes query cost: an index built under another
  // policy returns the same neighbours.
  if (!index_) {
    index_.emplace(screening_cell_m(policy));
    index_readings(*index_, positions_, 0);
  }
  return apply(policy, readings, contributor, *screen(policy, readings));
}

std::size_t ChannelState::purge_pending(const std::string& contributor) {
  return std::erase_if(pending_, [&contributor](const PendingReading& pr) {
    return pr.contributor == contributor;
  });
}

void ChannelState::encode(codec::Writer& out) const {
  out.i64(channel_);
  out.str(sensor_name_);
  out.u64(size());
  for (std::size_t i = 0; i < size(); ++i) encode_reading(out, reading(i));
  out.u64(pending_.size());
  for (const PendingReading& pr : pending_) {
    encode_reading(out, pr.reading);
    out.str(pr.contributor);
  }
  out.u64(uploads_applied_);
  out.u64(accepted_since_build_);
}

ChannelState ChannelState::decode(codec::Reader& in) {
  ChannelState state;
  const std::int64_t channel = in.i64();
  if (channel < std::numeric_limits<int>::min() ||
      channel > std::numeric_limits<int>::max()) {
    throw codec::Error("channel number out of range");
  }
  state.channel_ = static_cast<int>(channel);
  state.sensor_name_ = in.str();
  const std::size_t n = in.count(kReadingBytes);
  for (std::size_t i = 0; i < n; ++i) state.append(decode_reading(in));
  state.pending_.resize(in.count(kReadingBytes + 1));
  for (PendingReading& pr : state.pending_) {
    pr.reading = decode_reading(in);
    pr.contributor = in.str();
  }
  state.uploads_applied_ = in.u64();
  state.accepted_since_build_ = static_cast<std::size_t>(in.u64());
  return state;
}

}  // namespace waldo::core
