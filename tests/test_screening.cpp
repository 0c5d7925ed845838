// Upload screening with a standing index (core::ChannelState) against the
// rebuild-per-batch screening it replaced. The oracle below is that older
// code, kept verbatim: it builds a fresh GridIndex over the whole channel
// for every batch. Randomized interleavings of trusted ingests and crowd
// batches — accepts, rejects, parked readings and promotions by several
// contributors — must leave SpectrumDatabase, SpectrumService and the
// one-shot core::screen_upload with exactly the oracle's ledgers, dataset
// bytes and pending pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "waldo/campaign/dataset_io.hpp"
#include "waldo/codec/codec.hpp"
#include "waldo/core/database.hpp"
#include "waldo/geo/grid_index.hpp"
#include "waldo/ml/stats.hpp"
#include "waldo/service/service.hpp"

namespace waldo::core {
namespace {

// ---------------------------------------------------------------- oracle

UploadResult oracle_screen_upload(const campaign::ChannelDataset& stored,
                                  std::vector<PendingReading>& pending,
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
    std::set<std::string> distinct{contributor};
    for (std::size_t p = 0; p < pending.size(); ++p) {
      const PendingReading& pr = pending[p];
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
      pending.push_back(PendingReading{m, contributor});
      ++result.pending;
    }
  }
  return result;
}

/// One channel as the old stores kept it, screened by the oracle (or, with
/// `one_shot`, by today's one-shot core::screen_upload).
struct ReferenceChannel {
  campaign::ChannelDataset dataset;
  std::vector<PendingReading> pending;
  std::uint64_t tickets = 0;

  UploadResult upload(const UploadPolicy& policy,
                      std::span<const campaign::Measurement> readings,
                      const std::string& contributor, bool one_shot) {
    std::vector<campaign::Measurement> accepted;
    UploadResult r =
        one_shot ? screen_upload(dataset, pending, policy, readings,
                                 contributor, accepted)
                 : oracle_screen_upload(dataset, pending, policy, readings,
                                        contributor, accepted);
    r.ticket = tickets++;
    dataset.readings.insert(dataset.readings.end(), accepted.begin(),
                            accepted.end());
    return r;
  }
};

// ------------------------------------------------------------- traffic

std::string csv_bytes(const campaign::ChannelDataset& ds) {
  std::ostringstream os;
  campaign::write_csv(os, ds);
  return os.str();
}

std::string pending_bytes(const std::vector<PendingReading>& pool) {
  codec::Writer out;
  for (const PendingReading& pr : pool) {
    const campaign::Measurement& m = pr.measurement;
    for (const double v : {m.position.east_m, m.position.north_m, m.raw,
                           m.rss_dbm, m.cft_db, m.aft_db, m.true_rss_dbm}) {
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

struct Case {
  std::uint64_t seed;
  UploadPolicy policy;
};

class ScreeningDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(ScreeningDifferential, IndexedStoresMatchTheRebuildPerBatchOracle) {
  const auto& [seed, policy] = GetParam();
  const std::vector<Op> traffic = make_traffic(seed, 700);

  std::map<int, ReferenceChannel> oracle;
  std::map<int, ReferenceChannel> one_shot;
  SpectrumDatabase database({}, {}, policy);
  service::SpectrumService service({}, {}, policy);

  std::size_t accepted = 0, rejected = 0, parked = 0, promoted = 0;
  const auto compare_state = [&](int channel, std::size_t step) {
    const ReferenceChannel& want = oracle.at(channel);
    const std::string want_csv = csv_bytes(want.dataset);
    const std::string want_pending = pending_bytes(want.pending);
    EXPECT_EQ(csv_bytes(database.dataset(channel)), want_csv) << "step " << step;
    EXPECT_EQ(csv_bytes(service.dataset_snapshot(channel)), want_csv)
        << "step " << step;
    EXPECT_EQ(csv_bytes(one_shot.at(channel).dataset), want_csv)
        << "step " << step;
    EXPECT_EQ(pending_bytes(database.channel_state(channel).pending()),
              want_pending)
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
      ReferenceChannel& ref = oracle[op.channel];
      if (ref.dataset.readings.empty()) {
        ref.dataset = sweep;
        one_shot[op.channel].dataset = sweep;
      } else {
        for (auto* r : {&ref, &one_shot[op.channel]}) {
          r->dataset.readings.insert(r->dataset.readings.end(),
                                     sweep.readings.begin(),
                                     sweep.readings.end());
        }
      }
      database.ingest_campaign(sweep);
      service.ingest_campaign(sweep);
      continue;
    }
    const std::size_t pool_before = oracle[op.channel].pending.size();
    const UploadResult want = oracle[op.channel].upload(
        policy, op.readings, op.contributor, /*one_shot=*/false);
    const UploadResult shot = one_shot[op.channel].upload(
        policy, op.readings, op.contributor, /*one_shot=*/true);
    const UploadResult db =
        database.upload_measurements(op.channel, op.readings, op.contributor);
    const UploadResult svc =
        service.upload_measurements(op.channel, op.readings, op.contributor);
    for (const UploadResult& got : {shot, db, svc}) {
      EXPECT_EQ(got.accepted, want.accepted) << "step " << step;
      EXPECT_EQ(got.rejected, want.rejected) << "step " << step;
      EXPECT_EQ(got.pending, want.pending) << "step " << step;
      EXPECT_EQ(got.ticket, want.ticket) << "step " << step;
    }
    accepted += want.accepted;
    rejected += want.rejected;
    parked += want.pending;
    promoted += pool_before + want.pending - oracle[op.channel].pending.size();
    if (step % 50 == 0) compare_state(op.channel, step);
  }
  for (const int channel : {21, 38}) compare_state(channel, traffic.size());

  // The traffic exercised every branch of the screen.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(parked, 0u);
  EXPECT_GT(promoted, 0u);
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
}

}  // namespace
}  // namespace waldo::core
