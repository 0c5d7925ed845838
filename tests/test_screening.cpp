// Upload screening with a standing index (core::ChannelState) against the
// rebuild-per-batch screening it replaced. The oracle below is that older
// code, kept verbatim: it builds a fresh GridIndex over the whole channel
// for every batch, takes the median by a full sort of its own, and tests
// every parked reading with hypot alone. Randomized interleavings of
// trusted ingests, crowd batches and purges — accepts, rejects, parked
// readings and promotions by several contributors — must leave
// SpectrumService and the one-shot core::screen_upload with exactly the
// oracle's ledgers, dataset bytes and pending pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "waldo/campaign/dataset_io.hpp"
#include "waldo/campaign/labeling.hpp"
#include "waldo/codec/codec.hpp"
#include "waldo/core/channel_state.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/geo/grid_index.hpp"
#include "waldo/service/service.hpp"

namespace waldo::core {
namespace {

// ---------------------------------------------------------------- oracle

/// The median as ml::quantile computed it when the oracle was written: a
/// sorted copy. Kept here so that the oracle does not follow the library.
double oracle_median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const double pos = 0.5 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// A parked reading as the oracle keeps it: the whole Measurement.
struct OracleParked {
  campaign::Measurement measurement;
  std::string contributor;
};

UploadResult oracle_screen_upload(const campaign::ChannelDataset& stored,
                                  std::vector<OracleParked>& pending,
                                  const UploadPolicy& policy,
                                  std::span<const campaign::Measurement> readings,
                                  const std::string& contributor,
                                  std::vector<campaign::Measurement>& accepted) {
  UploadResult result;
  if (readings.empty()) return result;

  // Correlation check against the stored neighbourhood (Section 3.4 /
  // secure collaborative sensing): an upload deviating wildly from what
  // nearby trusted readings saw is rejected; an upload nobody can vouch
  // for is held pending until independently corroborated.
  const geo::GridIndex index(stored.positions(),
                             std::max(50.0, policy.neighbourhood_m));
  const std::vector<double> stored_rss = stored.rss_values();

  for (const campaign::Measurement& m : readings) {
    const std::vector<std::size_t> nearby =
        index.query_radius(m.position, policy.neighbourhood_m);
    if (nearby.size() >= policy.min_neighbours) {
      std::vector<double> neighbour_rss;
      neighbour_rss.reserve(nearby.size());
      for (const std::size_t j : nearby) {
        neighbour_rss.push_back(stored_rss[j]);
      }
      const double median = oracle_median(neighbour_rss);
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
    std::set<std::string> distinct{contributor};
    for (std::size_t p = 0; p < pending.size(); ++p) {
      const OracleParked& pr = pending[p];
      if (geo::distance_m(pr.measurement.position, m.position) >
          policy.corroboration_m) {
        continue;
      }
      if (std::abs(pr.measurement.rss_dbm - m.rss_dbm) >
          policy.max_deviation_db) {
        continue;
      }
      corroborators.push_back(p);
      distinct.insert(pr.contributor);
    }
    if (distinct.size() >= policy.min_corroborators) {
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
      pending.push_back(OracleParked{m, contributor});
      ++result.pending;
    }
  }
  return result;
}

/// The one-shot core::screen_upload, over core's pending pool.
UploadResult screen(const campaign::ChannelDataset& stored,
                    std::vector<PendingReading>& pending,
                    const UploadPolicy& policy,
                    std::span<const campaign::Measurement> readings,
                    const std::string& contributor,
                    std::vector<campaign::Measurement>& accepted) {
  return screen_upload(stored, pending, policy, readings, contributor,
                       accepted);
}

/// The oracle, over its own pending pool.
UploadResult screen(const campaign::ChannelDataset& stored,
                    std::vector<OracleParked>& pending,
                    const UploadPolicy& policy,
                    std::span<const campaign::Measurement> readings,
                    const std::string& contributor,
                    std::vector<campaign::Measurement>& accepted) {
  return oracle_screen_upload(stored, pending, policy, readings, contributor,
                              accepted);
}

/// One channel as the old stores kept it, screened by the oracle (with an
/// OracleParked pool) or by today's one-shot core::screen_upload (with a
/// PendingReading pool).
template <typename Parked>
struct ReferenceChannel {
  campaign::ChannelDataset dataset;
  std::vector<Parked> pending;
  std::uint64_t tickets = 0;

  UploadResult upload(const UploadPolicy& policy,
                      std::span<const campaign::Measurement> readings,
                      const std::string& contributor) {
    std::vector<campaign::Measurement> accepted;
    UploadResult r =
        screen(dataset, pending, policy, readings, contributor, accepted);
    r.ticket = tickets++;
    dataset.readings.insert(dataset.readings.end(), accepted.begin(),
                            accepted.end());
    return r;
  }

  std::size_t purge(const std::string& contributor) {
    return std::erase_if(pending, [&contributor](const Parked& pr) {
      return pr.contributor == contributor;
    });
  }
};

// ------------------------------------------------------------- traffic

std::string csv_bytes(const campaign::ChannelDataset& ds) {
  std::ostringstream os;
  campaign::write_csv(os, ds);
  return os.str();
}

/// `ds` as a store serves it: position, RSS, CFT and AFT kept, raw and
/// true_rss_dbm 0, no I/Q.
campaign::ChannelDataset served(campaign::ChannelDataset ds) {
  for (campaign::Measurement& m : ds.readings) {
    m = StoredReading::of(m).measurement();
  }
  return ds;
}

/// A pending pool's served fields and contributors, in pool order.
template <typename Parked>
std::string pending_bytes(const std::vector<Parked>& pool) {
  codec::Writer out;
  for (const Parked& pr : pool) {
    StoredReading m;
    if constexpr (std::is_same_v<Parked, OracleParked>) {
      m = StoredReading::of(pr.measurement);
    } else {
      m = pr.reading;
    }
    for (const double v : {m.position.east_m, m.position.north_m, m.rss_dbm,
                           m.cft_db, m.aft_db}) {
      out.f64(v);
    }
    out.str(pr.contributor);
  }
  return std::move(out).finish();
}

/// A smooth RSS field with a few dB of noise; the spoofer adds 30 dB.
campaign::Measurement reading_at(geo::EnuPoint p, std::mt19937_64& rng) {
  std::normal_distribution<double> noise(0.0, 2.5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  campaign::Measurement m;
  m.position = p;
  m.true_rss_dbm = -70.0 - 0.002 * p.east_m + 4.0 * std::sin(p.north_m / 900.0);
  m.rss_dbm = m.true_rss_dbm + noise(rng);
  m.raw = m.rss_dbm * 0.5 + unit(rng);
  m.cft_db = m.rss_dbm - 9.0 + unit(rng);
  m.aft_db = m.rss_dbm - 14.0 + unit(rng);
  return m;
}

struct Op {
  bool ingest = false;
  bool purge = false;  ///< drop `contributor`'s parked readings everywhere
  int channel = 0;
  std::string contributor;
  std::vector<campaign::Measurement> readings;
};

/// Trusted sweeps start over a 6 km square; crowd batches mix honest
/// readings there, spoofed ones, and readings in a frontier east of it
/// that later sweeps sometimes cover. Frontier readings sit on a coarse
/// lattice so that independent contributors corroborate each other.
std::vector<Op> make_traffic(std::uint64_t seed, std::size_t ops) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> known(0.0, 6'000.0);
  std::uniform_real_distribution<double> frontier(6'500.0, 12'000.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> lattice(0, 5);
  std::uniform_real_distribution<double> jitter(-150.0, 150.0);
  const std::vector<std::string> crowd = {"ann", "bob", "cat", "dev", "eve"};
  std::vector<Op> out;
  for (const int channel : {21, 38}) {
    Op sweep{.ingest = true, .channel = channel};
    for (int i = 0; i < 600; ++i) {
      sweep.readings.push_back(reading_at({known(rng), known(rng)}, rng));
    }
    out.push_back(std::move(sweep));
  }
  for (std::size_t n = 0; n < ops; ++n) {
    Op op;
    op.channel = unit(rng) < 0.5 ? 21 : 38;
    if (unit(rng) < 0.04) {
      // A later trusted sweep, partly into the frontier.
      op.ingest = true;
      for (int i = 0; i < 40; ++i) {
        const geo::EnuPoint p{unit(rng) < 0.5 ? known(rng) : frontier(rng),
                              known(rng)};
        op.readings.push_back(reading_at(p, rng));
      }
      out.push_back(std::move(op));
      continue;
    }
    op.contributor = crowd[static_cast<std::size_t>(unit(rng) * crowd.size())];
    const std::size_t size = 1 + static_cast<std::size_t>(unit(rng) * 4);
    for (std::size_t i = 0; i < size; ++i) {
      const double kind = unit(rng);
      if (kind < 0.45) {
        op.readings.push_back(reading_at({known(rng), known(rng)}, rng));
      } else if (kind < 0.6) {
        campaign::Measurement m = reading_at({known(rng), known(rng)}, rng);
        m.rss_dbm += 30.0;
        op.readings.push_back(m);
      } else {
        const geo::EnuPoint spot{6'800.0 + 900.0 * lattice(rng) + jitter(rng),
                                 600.0 + 900.0 * lattice(rng) + jitter(rng)};
        op.readings.push_back(reading_at(spot, rng));
      }
    }
    out.push_back(std::move(op));
  }
  return out;
}

/// What a differential run went through, so that a test can check that
/// its traffic exercised every branch of the screen.
struct Tally {
  std::size_t accepted = 0, rejected = 0, parked = 0, promoted = 0;
  std::size_t purged = 0, largest_pool = 0;
};

/// Plays `traffic` into the oracle, the one-shot screen and
/// SpectrumService, and expects the same ledgers after every batch and
/// the same dataset bytes and pending pools every 50 steps and at the end.
Tally run_differential(const std::vector<Op>& traffic,
                       const UploadPolicy& policy) {
  std::map<int, ReferenceChannel<OracleParked>> oracle;
  std::map<int, ReferenceChannel<PendingReading>> one_shot;
  service::SpectrumService service({}, {}, policy);

  Tally tally;
  const auto compare_state = [&](int channel, std::size_t step) {
    const ReferenceChannel<OracleParked>& want = oracle.at(channel);
    const std::string want_csv = csv_bytes(served(want.dataset));
    const std::string want_pending = pending_bytes(want.pending);
    EXPECT_EQ(csv_bytes(service.dataset_snapshot(channel)), want_csv)
        << "step " << step;
    EXPECT_EQ(csv_bytes(served(one_shot.at(channel).dataset)), want_csv)
        << "step " << step;
    for (const ChannelState& state : service.channel_states()) {
      if (state.channel() == channel) {
        EXPECT_EQ(pending_bytes(state.pending()), want_pending)
            << "step " << step;
      }
    }
    EXPECT_EQ(pending_bytes(one_shot.at(channel).pending), want_pending)
        << "step " << step;
  };

  for (std::size_t step = 0; step < traffic.size(); ++step) {
    const Op& op = traffic[step];
    if (op.ingest) {
      campaign::ChannelDataset sweep{.channel = op.channel,
                                     .sensor_name = "usrp",
                                     .readings = op.readings};
      for (campaign::ChannelDataset* ds :
           {&oracle[op.channel].dataset, &one_shot[op.channel].dataset}) {
        if (ds->readings.empty()) {
          *ds = sweep;
        } else {
          ds->readings.insert(ds->readings.end(), sweep.readings.begin(),
                              sweep.readings.end());
        }
      }
      service.ingest_campaign(sweep);
      continue;
    }
    if (op.purge) {
      std::size_t want = 0;
      for (auto& [channel, ref] : oracle) want += ref.purge(op.contributor);
      for (auto& [channel, ref] : one_shot) (void)ref.purge(op.contributor);
      EXPECT_EQ(service.purge_pending(op.contributor), want) << "step " << step;
      tally.purged += want;
      continue;
    }
    const std::size_t pool_before = oracle[op.channel].pending.size();
    const UploadResult want =
        oracle[op.channel].upload(policy, op.readings, op.contributor);
    const UploadResult shot =
        one_shot[op.channel].upload(policy, op.readings, op.contributor);
    const UploadResult svc =
        service.upload_measurements(op.channel, op.readings, op.contributor);
    for (const UploadResult& got : {shot, svc}) {
      EXPECT_EQ(got.accepted, want.accepted) << "step " << step;
      EXPECT_EQ(got.rejected, want.rejected) << "step " << step;
      EXPECT_EQ(got.pending, want.pending) << "step " << step;
      EXPECT_EQ(got.ticket, want.ticket) << "step " << step;
    }
    tally.accepted += want.accepted;
    tally.rejected += want.rejected;
    tally.parked += want.pending;
    tally.promoted +=
        pool_before + want.pending - oracle[op.channel].pending.size();
    tally.largest_pool =
        std::max(tally.largest_pool, oracle[op.channel].pending.size());
    if (step % 50 == 0) compare_state(op.channel, step);
  }
  for (const auto& [channel, ref] : oracle) {
    compare_state(channel, traffic.size());
  }
  return tally;
}

struct Case {
  std::uint64_t seed;
  UploadPolicy policy;
};

class ScreeningDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(ScreeningDifferential, IndexedStoresMatchTheRebuildPerBatchOracle) {
  const auto& [seed, policy] = GetParam();
  const Tally tally = run_differential(make_traffic(seed, 700), policy);
  // The traffic exercised every branch of the screen.
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.parked, 0u);
  EXPECT_GT(tally.promoted, 0u);
}

UploadPolicy tight_policy() {
  UploadPolicy p;
  p.neighbourhood_m = 600.0;
  p.min_neighbours = 2;
  p.min_corroborators = 3;
  p.max_deviation_db = 8.0;
  return p;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ScreeningDifferential,
    ::testing::Values(Case{1, {}}, Case{2, {}}, Case{3, {}},
                      Case{4, tight_policy()}, Case{5, tight_policy()}),
    [](const auto& info) { return "Seed" + std::to_string(info.param.seed); });

struct NeighbourhoodCase {
  std::string name;
  std::uint64_t seed;
  double neighbourhood_m;
};

void PrintTo(const NeighbourhoodCase& c, std::ostream* os) { *os << c.name; }

class NeighbourhoodRadiusDifferential
    : public ::testing::TestWithParam<NeighbourhoodCase> {};

// Vouching radii at the edges of the neighbourhood test, where the
// one-shot screen's linear pass must still find exactly the neighbours of
// the standing index: 0 (only a reading at the very spot vouches), -1 and
// NaN (nothing vouches, so every reading goes to corroboration) and 1e7
// (every stored reading vouches, from cells 1e7 m wide).
TEST_P(NeighbourhoodRadiusDifferential, IndexedStoresMatchTheOracle) {
  const NeighbourhoodCase& c = GetParam();
  UploadPolicy policy;
  policy.neighbourhood_m = c.neighbourhood_m;
  const Tally tally = run_differential(make_traffic(c.seed, 500), policy);
  EXPECT_GT(tally.accepted, 0u);
  if (c.neighbourhood_m >= 1e7) {
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_EQ(tally.parked, 0u);
  } else {
    EXPECT_GT(tally.parked, 0u);
    EXPECT_GT(tally.promoted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Radii, NeighbourhoodRadiusDifferential,
    ::testing::Values(
        NeighbourhoodCase{"Zero", 31, 0.0},
        NeighbourhoodCase{"Negative", 32, -1.0},
        NeighbourhoodCase{"NaN", 33, std::numeric_limits<double>::quiet_NaN()},
        NeighbourhoodCase{"Huge", 34, 1e7}),
    [](const auto& info) { return info.param.name; });

/// Traffic that fills the pending pool. Trusted sweeps have whole-dB
/// powers (so neighbourhoods hold duplicates) and a few infinite ones.
/// Most crowd readings land in a wide frontier nobody vouches for, with
/// powers spread over 100 dB; the rest sit on a dozen fixed spots, half of
/// them at exactly repeated positions, with spot-specific powers, so that
/// independent contributors corroborate each other at any radius. Purges
/// of one contributor's stash are interleaved.
std::vector<Op> make_crowded_traffic(std::uint64_t seed, std::size_t ops) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> known(0.0, 4'000.0);
  std::uniform_real_distribution<double> wide(5'000.0, 60'000.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> spot(0, 11);
  std::uniform_real_distribution<double> jitter(-300.0, 300.0);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::string> crowd = {"ann", "bob", "cat", "dev",
                                          "eve", "fay", "gus", "hal"};
  const auto trusted = [&](geo::EnuPoint p) {
    campaign::Measurement m = reading_at(p, rng);
    m.rss_dbm = std::round(m.rss_dbm);
    const double u = unit(rng);
    if (u < 0.02) m.rss_dbm = inf;
    if (u >= 0.02 && u < 0.04) m.rss_dbm = -inf;
    return m;
  };
  std::vector<Op> out;
  Op first;
  first.ingest = true;
  first.channel = 21;
  for (int i = 0; i < 300; ++i) {
    first.readings.push_back(trusted({known(rng), known(rng)}));
  }
  out.push_back(std::move(first));
  for (std::size_t n = 0; n < ops; ++n) {
    Op op;
    op.channel = 21;
    op.contributor = crowd[static_cast<std::size_t>(unit(rng) * crowd.size())];
    const double what = unit(rng);
    if (what < 0.02) {
      op.ingest = true;
      for (int i = 0; i < 20; ++i) {
        op.readings.push_back(trusted(
            {unit(rng) < 0.5 ? known(rng) : wide(rng), known(rng)}));
      }
    } else if (what < 0.04) {
      op.purge = true;
    } else {
      const std::size_t size = 1 + static_cast<std::size_t>(unit(rng) * 4);
      for (std::size_t i = 0; i < size; ++i) {
        const double kind = unit(rng);
        campaign::Measurement m;
        if (kind < 0.25) {
          m = reading_at({known(rng), known(rng)}, rng);
        } else if (kind < 0.35) {
          m = reading_at({known(rng), known(rng)}, rng);
          m.rss_dbm += 30.0;
        } else if (kind < 0.75) {
          m = reading_at({wide(rng), wide(rng)}, rng);
          m.rss_dbm = -130.0 + 100.0 * unit(rng);
        } else {
          const int k = spot(rng);
          geo::EnuPoint p{8'000.0 + 4'000.0 * k, 50'000.0 - 3'000.0 * k};
          if (k % 2 == 1) p = {p.east_m + jitter(rng), p.north_m + jitter(rng)};
          m = reading_at(p, rng);
          m.rss_dbm = -125.0 + 8.0 * k + unit(rng);
        }
        op.readings.push_back(m);
      }
    }
    out.push_back(std::move(op));
  }
  return out;
}

struct RadiusCase {
  std::string name;
  std::uint64_t seed;
  double corroboration_m;
  std::size_t min_corroborators;
};

void PrintTo(const RadiusCase& c, std::ostream* os) { *os << c.name; }

class CrowdedPoolDifferential : public ::testing::TestWithParam<RadiusCase> {};

// Hundreds of parked readings from eight contributors, promotions and
// purges, at radii where the corroboration prefilter skips almost every
// parked reading (0, 500), none (1e7, +inf), or must stay out of the way
// (-1: the exact test skips everything; NaN: it skips nothing).
TEST_P(CrowdedPoolDifferential, IndexedStoresMatchTheOracle) {
  const RadiusCase& c = GetParam();
  UploadPolicy policy;
  policy.neighbourhood_m = 400.0;
  policy.min_neighbours = 2;
  policy.max_deviation_db = 2.0;
  policy.corroboration_m = c.corroboration_m;
  policy.min_corroborators = c.min_corroborators;
  const Tally tally = run_differential(make_crowded_traffic(c.seed, 1500), policy);
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.parked, 0u);
  EXPECT_GT(tally.purged, 0u);
  if (!(c.corroboration_m < 0.0)) {
    EXPECT_GT(tally.promoted, 0u);
  }
  if (c.corroboration_m <= 500.0) {
    EXPECT_GE(tally.largest_pool, 200u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Radii, CrowdedPoolDifferential,
    ::testing::Values(
        RadiusCase{"Zero", 21, 0.0, 2}, RadiusCase{"Negative", 22, -1.0, 2},
        RadiusCase{"Default", 23, 500.0, 2},
        RadiusCase{"DefaultThreeContributors", 24, 500.0, 3},
        RadiusCase{"Huge", 25, 1e7, 2},
        RadiusCase{"Infinite", 26, std::numeric_limits<double>::infinity(), 2},
        RadiusCase{"NaN", 27, std::numeric_limits<double>::quiet_NaN(), 2}),
    [](const auto& info) { return info.param.name; });

// The corroboration prefilter compares squared offsets against a padded
// reach. Here the squared offset rounds above r*r although hypot, the
// exact test, puts the parked reading at exactly r: it must corroborate.
TEST(ChannelState, PrefilterNeverSkipsAReadingTheExactTestKeeps) {
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> offset(100.0, 400.0);
  double de = 0.0, dn = 0.0, r = 0.0;
  for (int tries = 0; tries < 10'000; ++tries) {
    de = offset(rng);
    dn = offset(rng);
    r = std::hypot(de, dn);
    if (de * de + dn * dn > r * r) break;
  }
  ASSERT_GT(de * de + dn * dn, r * r);
  ASSERT_LE(geo::distance_m({de, dn}, {0.0, 0.0}), r);

  UploadPolicy policy;
  policy.corroboration_m = r;
  campaign::Measurement parked = reading_at({de, dn}, rng);
  campaign::Measurement fresh = reading_at({0.0, 0.0}, rng);
  fresh.rss_dbm = parked.rss_dbm;

  ChannelState state;
  EXPECT_EQ(state.upload(policy, {&parked, 1}, "ann").ledger.pending, 1u);
  const ChannelState::Applied a = state.upload(policy, {&fresh, 1}, "bob");
  EXPECT_EQ(a.ledger.accepted, 2u);
  EXPECT_TRUE(state.pending().empty());

  std::vector<PendingReading> pool{{StoredReading::of(parked), "ann"}};
  std::vector<campaign::Measurement> accepted;
  const UploadResult one_shot =
      screen_upload({}, pool, policy, {&fresh, 1}, "bob", accepted);
  EXPECT_EQ(one_shot.accepted, 2u);
  EXPECT_TRUE(pool.empty());
}

/// A channel of 400 trusted readings over a 4 km square.
ChannelState surveyed_channel() {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> known(0.0, 4'000.0);
  campaign::ChannelDataset sweep{
      .channel = 21, .sensor_name = "usrp", .readings = {}};
  for (int i = 0; i < 400; ++i) {
    sweep.readings.push_back(reading_at({known(rng), known(rng)}, rng));
  }
  return ChannelState(std::move(sweep));
}

// Regression: a reading at an impossible position found no trusted
// neighbours, was parked, and a second identity's reading at the same
// spot promoted both into the trusted dataset, where the next model put a
// locality centroid at 1e300 m.
TEST(ChannelState, RejectsReadingsAtImpossiblePositionsOrPowers) {
  const UploadPolicy policy;
  std::mt19937_64 rng(12);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<geo::EnuPoint> impossible{
      {1e300, 1e300}, {2.0e7 + 1.0, 0.0}, {0.0, -2.0e7 - 1.0},
      {inf, 0.0},     {0.0, -inf},        {nan, 100.0}};
  for (const geo::EnuPoint& p : impossible) {
    ChannelState state = surveyed_channel();
    const std::string before = csv_bytes(state.dataset());
    for (const std::string who : {"ann", "bob", "cat"}) {
      const campaign::Measurement m = reading_at(p, rng);
      const ChannelState::Applied a = state.upload(policy, {&m, 1}, who);
      EXPECT_EQ(a.ledger.rejected, 1u) << p.east_m << ", " << p.north_m;
    }
    EXPECT_EQ(csv_bytes(state.dataset()), before);
    EXPECT_TRUE(state.pending().empty());
  }
  // Non-finite powers are rejected inside coverage and outside it.
  ChannelState state = surveyed_channel();
  for (const double rss : {nan, inf, -inf}) {
    for (const geo::EnuPoint p : {geo::EnuPoint{2'000.0, 2'000.0},
                                  geo::EnuPoint{1.9e7, -1.9e7}}) {
      campaign::Measurement m = reading_at(p, rng);
      m.rss_dbm = rss;
      const ChannelState::Applied a = state.upload(policy, {&m, 1}, "ann");
      EXPECT_EQ(a.ledger.rejected, 1u) << rss;
    }
  }
  EXPECT_TRUE(state.pending().empty());
  // The edge of the plausible square is still a position.
  const campaign::Measurement edge = reading_at({2.0e7, -2.0e7}, rng);
  EXPECT_EQ(state.upload(policy, {&edge, 1}, "ann").ledger.pending, 1u);
}

// Regression: corroboration counted pending readings from other
// contributors, not distinct contributors, so with min_corroborators = 3
// one colluder with two parked readings promoted a third identity's.
TEST(ChannelState, CorroborationCountsDistinctContributors) {
  UploadPolicy policy;
  policy.min_corroborators = 3;
  std::mt19937_64 rng(13);
  ChannelState state = surveyed_channel();
  const auto at = [&](double east) { return reading_at({east, 9'000.0}, rng); };
  const std::vector<campaign::Measurement> colluder{at(8'000.0), at(8'010.0)};
  EXPECT_EQ(state.upload(policy, colluder, "mallory").ledger.pending, 2u);
  const campaign::Measurement second = at(8'020.0);
  const ChannelState::Applied two = state.upload(policy, {&second, 1}, "sybil");
  EXPECT_EQ(two.ledger.accepted, 0u);
  EXPECT_EQ(two.ledger.pending, 1u);
  // A third distinct contributor completes the quorum: the new reading
  // plus the three parked ones are promoted.
  const campaign::Measurement third = at(8'030.0);
  const ChannelState::Applied three = state.upload(policy, {&third, 1}, "trent");
  EXPECT_EQ(three.ledger.accepted, 4u);
  EXPECT_TRUE(state.pending().empty());
}

// The store keeps 40 B of each reading, in column blocks of 2,048: a
// channel of 5,300 readings spans three blocks. What it hands back (the
// dataset, the rebuild snapshot, the codec form and the model built from
// the snapshot) is the served fields of what it took in, across blocks.
TEST(ChannelState, ColumnsAcrossBlocksHoldTheServedFields) {
  static_assert(sizeof(StoredReading) == 40);
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<double> known(0.0, 20'000.0);
  campaign::ChannelDataset sweep{
      .channel = 21, .sensor_name = "usrp", .readings = {}};
  for (int i = 0; i < 5'000; ++i) {
    campaign::Measurement m = reading_at({known(rng), known(rng)}, rng);
    m.iq = {{1.0, -1.0}};
    sweep.readings.push_back(m);
  }
  campaign::ChannelDataset later = sweep;
  later.readings.resize(300);
  ChannelState state(sweep);
  state.ingest(later);
  ASSERT_EQ(state.size(), 5'300u);
  campaign::ChannelDataset all = served(sweep);
  for (const campaign::Measurement& m : later.readings) {
    all.readings.push_back(StoredReading::of(m).measurement());
  }
  EXPECT_EQ(csv_bytes(state.dataset()), csv_bytes(all));

  // The snapshot reuses its buffers and keeps only the columns it needs.
  TrainingColumns snapshot;
  state.copy_columns(4, snapshot);
  const TrainingColumns want = training_columns(all, 4);
  EXPECT_EQ(snapshot.channel, 21);
  ASSERT_EQ(snapshot.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(snapshot.positions[i].east_m, want.positions[i].east_m) << i;
    ASSERT_EQ(snapshot.positions[i].north_m, want.positions[i].north_m) << i;
    ASSERT_EQ(snapshot.rss_dbm[i], want.rss_dbm[i]) << i;
    ASSERT_EQ(snapshot.cft_db[i], want.cft_db[i]) << i;
    ASSERT_EQ(snapshot.aft_db[i], want.aft_db[i]) << i;
  }
  state.copy_columns(2, snapshot);
  EXPECT_EQ(snapshot.size(), 5'300u);
  EXPECT_TRUE(snapshot.cft_db.empty());
  EXPECT_TRUE(snapshot.aft_db.empty());
  EXPECT_THROW(state.copy_columns(5, snapshot), std::invalid_argument);

  // A model built from the snapshot is the dataset form's, byte for byte.
  ModelConstructorConfig config;
  config.classifier = "naive_bayes";
  config.num_features = 2;
  config.threads = 1;
  const ModelConstructor constructor(config);
  const std::vector<int> labels =
      campaign::label_readings(snapshot.positions, snapshot.rss_dbm);
  EXPECT_EQ(constructor.build(snapshot, labels).serialize(),
            constructor.build(all, labels).serialize());

  codec::Writer out;
  state.encode(out);
  const std::string wire = std::move(out).finish();
  codec::Reader in(wire);
  const ChannelState copy = ChannelState::decode(in);
  in.expect_done();
  EXPECT_EQ(csv_bytes(copy.dataset()), csv_bytes(all));
}

// A state shipped through its codec form screens the next batch exactly
// like the state it was copied from (the receiver rebuilds the index).
TEST(ChannelState, DecodedStateScreensLikeTheOriginal) {
  const UploadPolicy policy;
  const std::vector<Op> traffic = make_traffic(9, 300);
  ChannelState original;
  std::size_t split = 0;
  for (std::size_t step = 0; step < traffic.size(); ++step) {
    const Op& op = traffic[step];
    if (op.channel != 21) continue;
    if (op.ingest) {
      original.ingest({.channel = 21, .sensor_name = "usrp",
                       .readings = op.readings});
    } else {
      (void)original.upload(policy, op.readings, op.contributor);
    }
    if (step > traffic.size() / 2) {
      split = step + 1;
      break;
    }
  }
  codec::Writer out;
  original.encode(out);
  const std::string wire = std::move(out).finish();
  codec::Reader in(wire);
  ChannelState copy = ChannelState::decode(in);
  in.expect_done();
  EXPECT_EQ(copy.uploads_applied(), original.uploads_applied());
  EXPECT_EQ(copy.staleness(), original.staleness());
  // No index arrives with the copy, so it cannot screen until its first
  // upload builds one.
  EXPECT_FALSE(copy.screen(policy, {}).has_value());

  for (std::size_t step = split; step < traffic.size(); ++step) {
    const Op& op = traffic[step];
    if (op.channel != 21 || op.ingest) continue;
    const ChannelState::Applied a =
        original.upload(policy, op.readings, op.contributor);
    const ChannelState::Applied b =
        copy.upload(policy, op.readings, op.contributor);
    EXPECT_EQ(a.ledger.accepted, b.ledger.accepted);
    EXPECT_EQ(a.ledger.rejected, b.ledger.rejected);
    EXPECT_EQ(a.ledger.pending, b.ledger.pending);
    EXPECT_EQ(a.ledger.ticket, b.ledger.ticket);
    EXPECT_EQ(a.model_stale, b.model_stale);
  }
  EXPECT_EQ(csv_bytes(copy.dataset()), csv_bytes(original.dataset()));
  EXPECT_EQ(pending_bytes(copy.pending()), pending_bytes(original.pending()));
  EXPECT_TRUE(copy.screen(policy, {}).has_value());
  const campaign::Measurement unscreened;
  EXPECT_THROW((void)copy.apply(policy, {&unscreened, 1}, "ann", {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace waldo::core
