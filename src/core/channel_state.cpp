#include "waldo/core/channel_state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "waldo/ml/stats.hpp"

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
                    const campaign::ChannelDataset& stored,
                    std::size_t first) {
  const auto& readings = stored.readings;
  if (readings.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("a channel holds at most 2^32 readings");
  }
  for (std::size_t i = first; i < readings.size(); ++i) {
    index.insert(static_cast<std::uint32_t>(i), readings[i].position);
  }
}

[[nodiscard]] geo::GridCells build_index(
    const campaign::ChannelDataset& stored, const UploadPolicy& policy) {
  geo::GridCells index(screening_cell_m(policy));
  index_readings(index, stored, 0);
  return index;
}

/// screen_upload against a prebuilt index over `stored`.
UploadResult screen_indexed(const geo::GridCells& index,
                            const campaign::ChannelDataset& stored,
                            std::vector<PendingReading>& pending,
                            const UploadPolicy& policy,
                            std::span<const campaign::Measurement> readings,
                            const std::string& contributor,
                            std::vector<campaign::Measurement>& accepted) {
  UploadResult result;
  // Correlation check against the stored neighbourhood (Section 3.4 /
  // secure collaborative sensing): an upload deviating wildly from what
  // nearby trusted readings saw is rejected; an upload nobody can vouch
  // for is held pending until independently corroborated.
  const auto position_of = [&stored](std::uint32_t j) -> const geo::EnuPoint& {
    return stored.readings[j].position;
  };
  // A parked reading whose squared offset exceeds the padded reach is
  // farther than corroboration_m by more than the rounding of either
  // formula, so skipping it cannot change a verdict; the hypot test below
  // decides the rest. A negative or NaN radius disables the prefilter.
  const double reach = policy.corroboration_m * (1.0 + 1e-9) + 1e-6;
  const double reach2 = policy.corroboration_m >= 0.0
                            ? reach * reach
                            : std::numeric_limits<double>::infinity();
  std::vector<double> neighbour_rss;
  for (const campaign::Measurement& m : readings) {
    if (!plausible(m)) {
      ++result.rejected;
      continue;
    }
    neighbour_rss.clear();
    index.for_each_within(m.position, policy.neighbourhood_m, position_of,
                          [&](std::uint32_t j) {
                            neighbour_rss.push_back(stored.readings[j].rss_dbm);
                          });
    if (neighbour_rss.size() >= policy.min_neighbours) {
      // The median is an order statistic, so the order the index yields
      // neighbours in cannot change a verdict.
      const double median = ml::quantile(neighbour_rss, 0.5);
      if (std::abs(m.rss_dbm - median) > policy.max_deviation_db) {
        ++result.rejected;
      } else {
        accepted.push_back(m);
        ++result.accepted;
      }
      continue;
    }

    // Unexplored territory: look for corroborating pending readings from
    // other contributors.
    std::vector<std::size_t> corroborators;
    std::vector<const std::string*> others;  // distinct other contributors
    for (std::size_t p = 0; p < pending.size(); ++p) {
      const PendingReading& pr = pending[p];
      const double de = pr.measurement.position.east_m - m.position.east_m;
      const double dn = pr.measurement.position.north_m - m.position.north_m;
      if (de * de + dn * dn > reach2 ||
          std::hypot(de, dn) > policy.corroboration_m) {
        continue;
      }
      if (std::abs(pr.measurement.rss_dbm - m.rss_dbm) >
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
      accepted.push_back(m);
      ++result.accepted;
      for (auto rit = corroborators.rbegin(); rit != corroborators.rend();
           ++rit) {
        accepted.push_back(pending[*rit].measurement);
        ++result.accepted;  // promoted into the trusted store now
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(*rit));
      }
    } else {
      pending.push_back(PendingReading{m, contributor});
      ++result.pending;
    }
  }
  return result;
}

void encode_measurement(codec::Writer& out, const campaign::Measurement& m) {
  out.f64(m.position.east_m);
  out.f64(m.position.north_m);
  out.f64(m.raw);
  out.f64(m.rss_dbm);
  out.f64(m.cft_db);
  out.f64(m.aft_db);
  out.f64(m.true_rss_dbm);
  out.u64(m.iq.size());
  for (const dsp::cplx& s : m.iq) {
    out.f64(s.real());
    out.f64(s.imag());
  }
}

/// Seven f64 fields plus a one-byte I/Q count.
constexpr std::size_t kMinMeasurementBytes = 7 * 8 + 1;

[[nodiscard]] campaign::Measurement decode_measurement(codec::Reader& in) {
  campaign::Measurement m;
  m.position.east_m = in.f64();
  m.position.north_m = in.f64();
  m.raw = in.f64();
  m.rss_dbm = in.f64();
  m.cft_db = in.f64();
  m.aft_db = in.f64();
  m.true_rss_dbm = in.f64();
  m.iq.resize(in.count(16));
  for (dsp::cplx& s : m.iq) {
    const double re = in.f64();
    s = dsp::cplx(re, in.f64());
  }
  return m;
}

}  // namespace

UploadResult screen_upload(const campaign::ChannelDataset& stored,
                           std::vector<PendingReading>& pending,
                           const UploadPolicy& policy,
                           std::span<const campaign::Measurement> readings,
                           const std::string& contributor,
                           std::vector<campaign::Measurement>& accepted) {
  if (readings.empty()) return {};
  return screen_indexed(build_index(stored, policy), stored, pending, policy,
                        readings, contributor, accepted);
}

ChannelState::ChannelState(campaign::ChannelDataset trusted)
    : dataset_(std::move(trusted)) {}

void ChannelState::ingest(campaign::ChannelDataset trusted) {
  const std::size_t first = dataset_.readings.size();
  if (dataset_.readings.empty()) {
    dataset_ = std::move(trusted);
  } else {
    dataset_.readings.insert(dataset_.readings.end(),
                             std::make_move_iterator(trusted.readings.begin()),
                             std::make_move_iterator(trusted.readings.end()));
  }
  if (index_) index_readings(*index_, dataset_, first);
  accepted_since_build_ = 0;
}

ChannelState::Applied ChannelState::upload(
    const UploadPolicy& policy,
    std::span<const campaign::Measurement> readings,
    const std::string& contributor) {
  // The cell size only tunes query cost: an index built under another
  // policy returns the same neighbours.
  if (!index_) index_ = build_index(dataset_, policy);
  std::vector<campaign::Measurement> accepted;
  Applied out;
  out.ledger = screen_indexed(*index_, dataset_, pending_, policy, readings,
                              contributor, accepted);
  out.ledger.ticket = uploads_applied_++;
  if (!accepted.empty()) {
    const std::size_t first = dataset_.readings.size();
    dataset_.readings.insert(dataset_.readings.end(),
                             std::make_move_iterator(accepted.begin()),
                             std::make_move_iterator(accepted.end()));
    index_readings(*index_, dataset_, first);
    accepted_since_build_ += out.ledger.accepted;
    if (accepted_since_build_ >= policy.rebuild_threshold) {
      out.model_stale = true;
      accepted_since_build_ = 0;
    }
  }
  return out;
}

std::size_t ChannelState::purge_pending(const std::string& contributor) {
  return std::erase_if(pending_, [&contributor](const PendingReading& pr) {
    return pr.contributor == contributor;
  });
}

void ChannelState::encode(codec::Writer& out) const {
  out.i64(dataset_.channel);
  out.str(dataset_.sensor_name);
  out.u64(dataset_.readings.size());
  for (const campaign::Measurement& m : dataset_.readings) {
    encode_measurement(out, m);
  }
  out.u64(pending_.size());
  for (const PendingReading& pr : pending_) {
    encode_measurement(out, pr.measurement);
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
  state.dataset_.channel = static_cast<int>(channel);
  state.dataset_.sensor_name = in.str();
  state.dataset_.readings.resize(in.count(kMinMeasurementBytes));
  for (campaign::Measurement& m : state.dataset_.readings) {
    m = decode_measurement(in);
  }
  state.pending_.resize(in.count(kMinMeasurementBytes + 1));
  for (PendingReading& pr : state.pending_) {
    pr.measurement = decode_measurement(in);
    pr.contributor = in.str();
  }
  state.uploads_applied_ = in.u64();
  state.accepted_since_build_ = static_cast<std::size_t>(in.u64());
  return state;
}

}  // namespace waldo::core
