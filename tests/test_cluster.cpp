// The cluster-tier contract (docs/CLUSTER.md): an N-node, R-replica
// cluster built from tile-scoped SpectrumServices converges — under
// concurrent client traffic, message drops/duplicates/delays, and
// node kill/recovery — to the exact bytes a single-threaded serial
// replay of the same upload stream produces. These tests (the fault and
// determinism suites run under TSan in CI) enforce that, plus the
// placement, wire-codec and router retry/failover behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "decode_sweep.hpp"
#include "waldo/campaign/dataset_io.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/cluster/cluster.hpp"
#include "waldo/cluster/membership.hpp"
#include "waldo/cluster/router.hpp"
#include "waldo/cluster/wire.hpp"
#include "waldo/codec/codec.hpp"
#include "waldo/core/protocol.hpp"
#include "waldo/geo/grid_index.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/runtime/seed.hpp"
#include "waldo/sensors/sensor.hpp"
#include "waldo/service/service.hpp"

namespace waldo::cluster {
namespace {

constexpr int kChannelA = 15;
constexpr int kChannelB = 46;

// ---------------------------------------------------------------- tiling

TEST(Tiling, FloorDivisionPlacesPointsAndCentersRoundTrip) {
  const Tiling tiling(1000.0);
  EXPECT_EQ(tiling.tile_of({0.0, 0.0}), (TileKey{0, 0}));
  EXPECT_EQ(tiling.tile_of({999.9, 1.0}), (TileKey{0, 0}));
  EXPECT_EQ(tiling.tile_of({1000.0, 0.0}), (TileKey{1, 0}));
  EXPECT_EQ(tiling.tile_of({-0.5, -1500.0}), (TileKey{-1, -2}));
  const TileKey t{3, -7};
  EXPECT_EQ(tiling.tile_of(tiling.center(t)), t);
}

// A device can send any location; one no map holds still gets a defined
// tile. NaN maps to 0, and anything past the int32 tile range saturates
// (a plain float-to-int cast would be undefined behaviour, which the UBSan
// job catches).
TEST(Tiling, ClampsImpossibleCoordinates) {
  const Tiling tiling(1000.0);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  EXPECT_EQ(tiling.tile_of({kNaN, kNaN}), (TileKey{0, 0}));
  EXPECT_EQ(tiling.tile_of({kNaN, 2500.0}), (TileKey{0, 2}));
  EXPECT_EQ(tiling.tile_of({1e300, -1e300}), (TileKey{kMax, kMin}));
  EXPECT_EQ(tiling.tile_of({-1e300, 1e300}), (TileKey{kMin, kMax}));
  EXPECT_EQ(tiling.tile_of({kInf, -kInf}), (TileKey{kMax, kMin}));
  EXPECT_EQ(tiling.tile_of({-kInf, kInf}), (TileKey{kMin, kMax}));
}

TEST(Tiling, RejectsNonPositiveTileSize) {
  EXPECT_THROW(Tiling(0.0), std::invalid_argument);
  EXPECT_THROW(Tiling(-5.0), std::invalid_argument);
}

TEST(Rendezvous, OrderIsADeterministicPermutation) {
  const TileKey tile{12, -34};
  const std::vector<NodeId> order = rendezvous_order(tile, 7);
  ASSERT_EQ(order.size(), 7u);
  std::set<NodeId> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 7u);  // a permutation of 0..6
  EXPECT_EQ(rendezvous_order(tile, 7), order);  // pure function
  // The replica set is the order's prefix, truncated to the node count.
  EXPECT_EQ(replica_set(tile, 7, 3),
            std::vector<NodeId>(order.begin(), order.begin() + 3));
  EXPECT_EQ(replica_set(tile, 7, 99).size(), 7u);
}

TEST(Rendezvous, GrowingTheClusterMovesOnlyAMinorityOfTiles) {
  int moved = 0;
  const int kTiles = 400;
  for (int i = 0; i < kTiles; ++i) {
    const TileKey tile{i % 20, i / 20};
    if (replica_set(tile, 4, 1) != replica_set(tile, 5, 1)) ++moved;
  }
  // HRW moves ~1/5 of singleton placements when a fifth node joins; a
  // ring-less modulo scheme would move ~4/5. Allow generous slack.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kTiles / 2);
}

TEST(Rendezvous, EveryNodeOwnsSomeTiles) {
  std::map<NodeId, int> owned;
  for (int i = 0; i < 64; ++i) {
    owned[replica_set(TileKey{i % 8, i / 8}, 4, 1)[0]]++;
  }
  ASSERT_EQ(owned.size(), 4u);
  for (const auto& [node, count] : owned) EXPECT_GT(count, 0);
}

// ------------------------------------------------------------ wire codec

/// The body a node sends for `snapshot`'s states and dedup window.
std::string encode_tile_snapshot(const TileSnapshot& snapshot) {
  TileSnapshotWriter out(snapshot.channels.size());
  for (const core::ChannelState& state : snapshot.channels) out.channel(state);
  return std::move(out).finish(snapshot.dedup);
}

/// Two channel states (one ingested with I/Q, which the store drops, one
/// with a pending reading) and two dedup records.
TileSnapshot sample_snapshot() {
  campaign::Measurement m;
  m.position = {1234.5, -987.25};
  m.raw = 0.125;
  m.rss_dbm = -83.0625;
  m.cft_db = -90.5;
  m.aft_db = -95.75;
  m.true_rss_dbm = -84.0;
  campaign::ChannelDataset a{.channel = 15, .sensor_name = "usrp",
                             .readings = {m, m}};
  a.readings[1].iq = {{0.5, -0.25}, {1.0, 2.0}};
  core::ChannelState first(a);
  const core::UploadPolicy policy;
  (void)first.upload(policy, std::vector<campaign::Measurement>{m}, "alice");

  campaign::ChannelDataset b{.channel = 46, .sensor_name = "rtl", .readings = {m}};
  core::ChannelState second(b);
  campaign::Measurement far = m;
  far.position.east_m += 50'000.0;
  (void)second.upload(policy, std::vector<campaign::Measurement>{far}, "carol");

  TileSnapshot snapshot;
  snapshot.channels = {first, second};
  snapshot.dedup = {
      {.request_id = 0xBEEF, .age_ns = 1'000'000'000, .ledger = {.accepted = 1}},
      {.request_id = 0xFEED, .age_ns = 7, .ledger = {.pending = 1, .ticket = 1}}};
  return snapshot;
}

TEST(ClusterWire, EnvelopeRoundTripsArbitraryBytes) {
  const Envelope e{.verb = "repl",
                   .from = 3,
                   .tile = TileKey{-5, 17},
                   .body = std::string("bin\0\n\xff data", 11)};
  const Envelope d = decode_envelope(encode_envelope(e));
  EXPECT_EQ(d.verb, "repl");
  EXPECT_EQ(d.from, 3u);
  EXPECT_EQ(d.tile, e.tile);
  EXPECT_EQ(d.body, e.body);
}

TEST(ClusterWire, RejectsMalformedEnvelopes) {
  EXPECT_THROW((void)decode_envelope("not clstr"), std::runtime_error);
  EXPECT_THROW((void)decode_envelope("CLSTR/1 wsnp 0 0 0"),
               std::runtime_error);  // no body newline
  // Declared length larger than the actual body.
  EXPECT_THROW((void)decode_envelope("CLSTR/1 wsnp 0 0 0 99\nshort"),
               std::runtime_error);
  // Trailing bytes beyond the declared length.
  const std::string valid = encode_envelope(
      {.verb = "ok", .from = 1, .tile = {}, .body = "abc"});
  EXPECT_THROW((void)decode_envelope(valid + "x"), std::runtime_error);
  // Non-numeric node id.
  EXPECT_THROW((void)decode_envelope("CLSTR/1 ok zz 0 0 0\n"),
               std::runtime_error);
}

TEST(ClusterWire, ReplEntryAndSnapshotRoundTrip) {
  ReplEntry entry{.channel = 46,
                  .ticket = 12,
                  .request_id = 0xDEADBEEFu,
                  .upload_wire = "WSNP/1 upload_request 0\n"};
  const ReplEntry decoded = decode_repl_entry(encode_repl_entry(entry));
  EXPECT_EQ(decoded.channel, 46);
  EXPECT_EQ(decoded.ticket, 12u);
  EXPECT_EQ(decoded.request_id, 0xDEADBEEFu);
  EXPECT_EQ(decoded.upload_wire, entry.upload_wire);

  // The decoder inverts the encoder exactly: every channel state (dataset
  // and pending pool as raw doubles, tickets, staleness) and every dedup
  // record comes back bit for bit.
  const TileSnapshot snapshot = sample_snapshot();
  const std::string wire = encode_tile_snapshot(snapshot);
  const TileSnapshot back = decode_tile_snapshot(wire);
  EXPECT_EQ(encode_tile_snapshot(back), wire);
  ASSERT_EQ(back.channels.size(), 2u);
  EXPECT_EQ(back.channels[0].channel(), 15);
  EXPECT_EQ(back.channels[0].dataset().sensor_name, "usrp");
  ASSERT_EQ(back.channels[0].dataset().size(), 2u);
  // The served fields of the reading ingested with I/Q come back bit for
  // bit; its raw value, ground truth and I/Q were never stored.
  const campaign::Measurement served = back.channels[0].dataset().readings[1];
  EXPECT_EQ(served.position.east_m, 1234.5);
  EXPECT_EQ(served.position.north_m, -987.25);
  EXPECT_EQ(served.rss_dbm, -83.0625);
  EXPECT_EQ(served.cft_db, -90.5);
  EXPECT_EQ(served.aft_db, -95.75);
  EXPECT_EQ(served.raw, 0.0);
  EXPECT_EQ(served.true_rss_dbm, 0.0);
  EXPECT_TRUE(served.iq.empty());
  EXPECT_EQ(back.channels[0].uploads_applied(), 1u);
  ASSERT_EQ(back.channels[1].pending().size(), 1u);
  EXPECT_EQ(back.channels[1].pending()[0].contributor, "carol");
  ASSERT_EQ(back.dedup.size(), 2u);
  EXPECT_EQ(back.dedup[1].request_id, 0xFEEDu);
  EXPECT_EQ(back.dedup[1].age_ns, 7u);
  EXPECT_EQ(back.dedup[1].ledger.ticket, 1u);
  EXPECT_THROW((void)decode_tile_snapshot(wire + "junk"), std::runtime_error);
}

// Layout 2: a stored reading travels as 5 f64 (40 bytes), a pending
// reading as the same plus its contributor, and the layout number leads.
TEST(ClusterWire, SnapshotCarriesFortyBytesAReading) {
  static_assert(sizeof(core::StoredReading) == 40);
  campaign::Measurement m;
  m.position = {10.0, 20.0};
  m.rss_dbm = -80.0;
  m.iq = {{1.0, 2.0}, {3.0, 4.0}};
  const auto snapshot_bytes = [&](std::size_t readings) {
    campaign::ChannelDataset ds{.channel = 21, .sensor_name = "usrp",
                                .readings = {}};
    ds.readings.assign(readings, m);
    return encode_tile_snapshot({.channels = {core::ChannelState(ds)},
                                 .dedup = {}})
        .size();
  };
  // 100 more readings stay within the one-byte varint of the count.
  EXPECT_EQ(snapshot_bytes(110) - snapshot_bytes(10), 100u * 40u);

  // An empty snapshot, well formed but for its layout number.
  codec::Writer old_layout;
  old_layout.u64(1);
  old_layout.u64(0);
  old_layout.u64(0);
  EXPECT_THROW((void)decode_tile_snapshot(std::move(old_layout).finish()),
               std::runtime_error);
}

// The test_codec corruption sweep, applied to the state-transfer wire: a
// snapshot cut short at any length or with any single bit flipped is
// rejected, never installed.
TEST(ClusterWire, SnapshotRejectsEveryTruncationAndBitFlip) {
  waldo::testing::expect_truncations_and_flips_rejected(
      encode_tile_snapshot(sample_snapshot()),
      [](const std::string& bytes) { return decode_tile_snapshot(bytes); });
}

std::string sample_upload_wire() {
  core::UploadRequest upload;
  upload.channel = kChannelB;
  upload.contributor = "bob";
  upload.request_id = 77;
  upload.location = {1234.5, -987.25};
  for (int i = 0; i < 3; ++i) {
    campaign::Measurement m;
    m.position = {1234.5 + i, -987.25 - i};
    m.rss_dbm = -83.0625 - i;
    upload.readings.push_back(m);
  }
  return core::encode(upload);
}

// A repl entry is codec-framed like the snapshot, so its CRC trailer
// rejects every flip: none can change the ticket, request id or channel
// that a replica applies.
TEST(ClusterWire, ReplEntryRejectsEveryTruncationAndBitFlip) {
  waldo::testing::expect_truncations_and_flips_rejected(
      encode_repl_entry({.channel = kChannelB,
                         .ticket = 12,
                         .request_id = 77,
                         .upload_wire = sample_upload_wire()}),
      [](const std::string& bytes) { return decode_repl_entry(bytes); });
}

// The CLSTR envelope is still text: a truncation is rejected, and a flip
// either decodes or is rejected with std::runtime_error.
TEST(ClusterWire, EnvelopeRejectsEveryTruncationAndContainsFlips) {
  waldo::testing::expect_truncations_rejected_and_flips_contained(
      encode_envelope({.verb = "wsnp",
                       .from = kClientNode,
                       .tile = TileKey{-5, 17},
                       .body = sample_upload_wire()}),
      [](const std::string& bytes) { return decode_envelope(bytes); });
}

// ------------------------------------------------------------ dedup window

TEST(DedupWindow, ForgetsIdsOnlyOnceTheyAreOlderThanTheHorizon) {
  using Clock = DedupWindow::Clock;
  const Clock::time_point t0{};
  const auto half = std::chrono::milliseconds(kDedupHorizon) / 2;
  DedupWindow window;
  window.remember(1, core::UploadResult{.accepted = 3, .ticket = 0}, t0);
  // A busy tile: many ids inside the horizon never push out an old one.
  for (std::uint64_t id = 2; id < 20'000; ++id) {
    window.remember(id, {}, t0 + half);
  }
  ASSERT_TRUE(window.find(1).has_value());
  EXPECT_EQ(window.find(1)->accepted, 3u);
  window.remember(20'000, {}, t0 + kDedupHorizon);
  EXPECT_TRUE(window.find(1).has_value()) << "forgotten at exactly the horizon";

  // Past the horizon the id is gone, and so is everything as old.
  window.remember(20'001, {}, t0 + kDedupHorizon + std::chrono::nanoseconds(1));
  EXPECT_FALSE(window.find(1).has_value());
  EXPECT_EQ(window.size(), 20'000u);
  window.remember(20'002, {}, t0 + 2 * kDedupHorizon);
  EXPECT_EQ(window.size(), 3u);  // 20'000, 20'001 and 20'002 remain
}

TEST(DedupWindow, RecordsRestoreWithTheirAges) {
  using Clock = DedupWindow::Clock;
  const Clock::time_point t0{};
  const auto half = std::chrono::milliseconds(kDedupHorizon) / 2;
  DedupWindow source;
  source.remember(7, core::UploadResult{.rejected = 3, .ticket = 4}, t0);
  source.remember(8, core::UploadResult{.pending = 1, .ticket = 5},
                  t0 + half);
  const auto records = source.records(t0 + half);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].request_id, 7u);

  // Restored elsewhere (another clock), the ids keep their remaining life:
  // id 7 expires half a horizon after the restore, not a full one.
  const Clock::time_point t1 = t0 + std::chrono::hours(1);
  DedupWindow copy;
  copy.restore(records, t1);
  ASSERT_TRUE(copy.find(7).has_value());
  EXPECT_EQ(copy.find(7)->ticket, 4u);
  copy.remember(9, {}, t1 + half + std::chrono::milliseconds(1));
  EXPECT_FALSE(copy.find(7).has_value());
  EXPECT_TRUE(copy.find(8).has_value());

  // Records already past the horizon are not restored at all.
  DedupWindow late;
  late.restore(source.records(t0 + 2 * kDedupHorizon), t1);
  EXPECT_EQ(late.size(), 0u);
}

TEST(FaultInjector, ScheduleIsAPureFunctionOfSeed) {
  const FaultPlan plan{.drop_request = 0.3,
                       .drop_response = 0.2,
                       .duplicate_request = 0.2,
                       .delay = 0.5,
                       .max_delay_us = 50,
                       .seed = 99};
  FaultInjector a(plan);
  FaultInjector b(plan);
  int faults = 0;
  for (int i = 0; i < 200; ++i) {
    const auto da = a.next();
    const auto db = b.next();
    EXPECT_EQ(da.drop_request, db.drop_request);
    EXPECT_EQ(da.drop_response, db.drop_response);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.delay_us, db.delay_us);
    faults += da.drop_request + da.drop_response + da.duplicate;
  }
  EXPECT_GT(faults, 0);

  FaultInjector quiet;  // all-zero plan: never interferes
  for (int i = 0; i < 50; ++i) {
    const auto d = quiet.next();
    EXPECT_FALSE(d.drop_request || d.drop_response || d.duplicate);
    EXPECT_EQ(d.delay_us, 0u);
  }
}

// ------------------------------------------------------------ membership

// The snapshot contract (membership.hpp): a reader's pointer stays valid,
// and keeps what it held, for the view's lifetime, while a writer publishes
// new snapshots. Three readers take snapshots while the writer flips node
// health; each keeps every distinct pointer it saw and reads them all again
// once the writer has stopped. CI repeats this under TSan.
TEST(MembershipView, KeptSnapshotsSurviveConcurrentHealthFlips) {
  constexpr NodeId kNodes = 4;
  constexpr std::uint64_t kWrites = 10'000;
  constexpr int kReaders = 3;
  // Write i sets node i % 4 to health i % 3, so the view's state at each
  // epoch is known in advance.
  const auto write = [](std::uint64_t i) {
    return std::pair{static_cast<NodeId>(i % kNodes),
                     static_cast<NodeHealth>(i % 3)};
  };
  std::vector<std::vector<NodeHealth>> at_epoch(
      1, std::vector<NodeHealth>(kNodes, NodeHealth::kReady));
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    at_epoch.push_back(at_epoch.back());
    const auto [node, health] = write(i);
    at_epoch.back()[node] = health;
  }

  MembershipView view(kNodes);
  struct Kept {
    const Membership* snapshot;
    Membership copy;  ///< what it held when taken
  };
  std::vector<std::vector<Kept>> kept(kReaders);
  std::vector<int> decreases(kReaders, 0);
  std::vector<int> wrong(kReaders, 0);
  std::atomic<int> started{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      started.fetch_add(1);
      const Membership* last = nullptr;
      bool stop = false;
      while (!stop) {
        stop = done.load();  // one more read after the writer stops
        const Membership* m = view.snapshot();
        if (m == last) continue;
        if (last != nullptr && m->epoch < last->epoch) ++decreases[r];
        if (m->epoch >= at_epoch.size() || m->health != at_epoch[m->epoch]) {
          ++wrong[r];
        }
        kept[r].push_back({m, *m});
        last = m;
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    const auto [node, health] = write(i);
    view.set_health(node, health);
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(decreases[r], 0) << "reader " << r;
    EXPECT_EQ(wrong[r], 0) << "reader " << r;
    ASSERT_FALSE(kept[r].empty()) << "reader " << r;
    EXPECT_EQ(kept[r].back().snapshot->epoch, kWrites) << "reader " << r;
    for (const Kept& k : kept[r]) {
      ASSERT_EQ(k.snapshot->epoch, k.copy.epoch) << "reader " << r;
      ASSERT_EQ(k.snapshot->health, k.copy.health)
          << "reader " << r << " epoch " << k.copy.epoch;
    }
  }
  const Membership* last = view.snapshot();
  EXPECT_EQ(last->epoch, kWrites);
  EXPECT_EQ(last->health, at_epoch.back());
}

// ------------------------------------------------------------- harness

class ClusterFixture : public ::testing::Test {
 protected:
  static constexpr double kTileSize = 200'000.0;
  /// Offset that puts the second campaign area in a different tile.
  static constexpr double kAreaOffset = 400'000.0;

  static void SetUpTestSuite() {
    env_ = new rf::Environment(rf::make_metro_environment());
    const geo::DrivePath route = campaign::standard_route(*env_, 500, 29);
    sensors::Sensor usrp(sensors::usrp_b200_spec(), 30);
    usrp.calibrate();
    data_a_ = new campaign::ChannelDataset(
        campaign::collect_channel(*env_, usrp, kChannelA, route.readings));
    data_b_ = new campaign::ChannelDataset(
        campaign::collect_channel(*env_, usrp, kChannelB, route.readings));
    data_a_far_ = new campaign::ChannelDataset(translate(*data_a_));
    data_b_far_ = new campaign::ChannelDataset(translate(*data_b_));
  }
  static void TearDownTestSuite() {
    delete env_;
    delete data_a_;
    delete data_b_;
    delete data_a_far_;
    delete data_b_far_;
    env_ = nullptr;
    data_a_ = nullptr;
    data_b_ = nullptr;
    data_a_far_ = nullptr;
    data_b_far_ = nullptr;
  }

  static core::ModelConstructorConfig fast_config() {
    core::ModelConstructorConfig cfg;
    cfg.classifier = "naive_bayes";
    cfg.num_localities = 3;
    cfg.num_features = 2;
    return cfg;
  }

  /// The same sweep conducted in a distant metro area (another tile).
  static campaign::ChannelDataset translate(
      const campaign::ChannelDataset& ds) {
    campaign::ChannelDataset out = ds;
    for (campaign::Measurement& m : out.readings) {
      m.position.east_m += kAreaOffset;
    }
    return out;
  }

  static ClusterConfig base_config(NodeId nodes, std::size_t replication) {
    ClusterConfig cfg;
    cfg.num_nodes = nodes;
    cfg.replication = replication;
    cfg.tile_size_m = kTileSize;
    cfg.constructor_config = fast_config();
    return cfg;
  }

  /// A small honest-looking upload batch derived from stored readings.
  static std::vector<campaign::Measurement> make_batch(
      const campaign::ChannelDataset& data, std::mt19937_64& rng) {
    std::uniform_int_distribution<std::size_t> pick(0, data.size() - 1);
    std::uniform_real_distribution<double> jitter(-40.0, 40.0);
    std::uniform_real_distribution<double> noise(-2.0, 2.0);
    std::vector<campaign::Measurement> batch;
    for (int i = 0; i < 3; ++i) {
      campaign::Measurement m = data.readings[pick(rng)];
      m.position.east_m += jitter(rng);
      m.position.north_m += jitter(rng);
      m.rss_dbm += noise(rng);
      m.iq.clear();
      batch.push_back(m);
    }
    return batch;
  }

  /// The batch as the server will see it: round-tripped through the WSNP
  /// wire (which drops server-only fields and normalises the doubles).
  static std::vector<campaign::Measurement> wire_roundtrip(
      int channel, std::vector<campaign::Measurement> batch) {
    core::UploadRequest request;
    request.channel = channel;
    request.contributor = "rt";
    request.readings = std::move(batch);
    return std::get<core::UploadRequest>(core::decode(core::encode(request)))
        .readings;
  }

  static std::string csv_bytes(const campaign::ChannelDataset& ds) {
    std::ostringstream os;
    campaign::write_csv(os, ds);
    return os.str();
  }

  /// A channel's pending pool as raw bytes: every field of every parked
  /// reading, in pool order.
  static std::string pending_bytes(const core::ChannelState& state) {
    codec::Writer out;
    for (const core::PendingReading& pr : state.pending()) {
      const core::StoredReading& m = pr.reading;
      for (const double v : {m.position.east_m, m.position.north_m,
                             m.rss_dbm, m.cft_db, m.aft_db}) {
        out.f64(v);
      }
      out.str(pr.contributor);
    }
    return std::move(out).finish();
  }

  /// The node's state for (tile, channel), fetched the way a recovering
  /// peer fetches it: a pull.
  static TileSnapshot pull(ClusterNode& node, TileKey tile) {
    const Envelope reply = decode_envelope(node.handle(encode_envelope(
        {.verb = "pull", .from = node.id(), .tile = tile, .body = {}})));
    if (reply.verb != "state") return {};
    return decode_tile_snapshot(reply.body);
  }

  static std::string pending_bytes(ClusterNode& node, TileKey tile,
                                   int channel) {
    for (const core::ChannelState& state : pull(node, tile).channels) {
      if (state.channel() == channel) return pending_bytes(state);
    }
    return "absent";
  }

  struct RecordedUpload {
    TileKey tile;
    int channel = 0;
    std::string contributor;
    std::vector<campaign::Measurement> readings;
    core::UploadResponse response;
  };

  /// The central theorem: replaying each (tile, channel)'s acknowledged
  /// uploads in ticket order through a fresh single-threaded service
  /// reproduces every replica byte-for-byte — datasets, cached model
  /// descriptors, ledgers and log sizes.
  static void expect_matches_serial_replay(
      Cluster& cluster, const std::vector<RecordedUpload>& uploads) {
    for (const TileKey tile : cluster.tiles()) {
      service::SpectrumService serial(cluster.config().constructor_config,
                                      cluster.config().labeling,
                                      cluster.config().upload_policy);
      serial.ingest_campaign(cluster.normalized_campaign(tile, 0));
      serial.ingest_campaign(cluster.normalized_campaign(tile, 1));

      std::map<int, std::vector<const RecordedUpload*>> by_channel;
      for (const RecordedUpload& rec : uploads) {
        if (rec.tile == tile) by_channel[rec.channel].push_back(&rec);
      }
      for (auto& [channel, records] : by_channel) {
        std::sort(records.begin(), records.end(),
                  [](const RecordedUpload* a, const RecordedUpload* b) {
                    return a->response.ticket < b->response.ticket;
                  });
        // Tickets are a dense sequence: nothing lost, nothing applied
        // twice — even when retries and duplicated frames were in play.
        for (std::size_t i = 0; i < records.size(); ++i) {
          ASSERT_EQ(records[i]->response.ticket, i) << "channel " << channel;
        }
        for (const RecordedUpload* rec : records) {
          const core::UploadResult serial_result = serial.upload_measurements(
              rec->channel, rec->readings, rec->contributor);
          EXPECT_EQ(serial_result.accepted, rec->response.accepted);
          EXPECT_EQ(serial_result.rejected, rec->response.rejected);
          EXPECT_EQ(serial_result.pending, rec->response.pending);
          EXPECT_EQ(serial_result.ticket, rec->response.ticket);
        }
      }

      for (const int channel : {kChannelA, kChannelB}) {
        const std::string want_csv = csv_bytes(serial.dataset_snapshot(channel));
        const std::string want_descriptor =
            *serial.download_descriptor(channel);
        std::string want_pending;
        serial.for_each_channel_state([&](const core::ChannelState& state) {
          if (state.channel() == channel) want_pending = pending_bytes(state);
        });
        for (const NodeId n : cluster.replicas_of(tile)) {
          EXPECT_EQ(cluster.node(n).dataset_csv(tile, channel), want_csv)
              << "dataset diverged: node " << n << " channel " << channel;
          EXPECT_EQ(cluster.node(n).descriptor_bytes(tile, channel),
                    want_descriptor)
              << "descriptor diverged: node " << n << " channel " << channel;
          EXPECT_EQ(cluster.node(n).uploads_applied(tile, channel),
                    by_channel[channel].size())
              << "apply order diverged: node " << n << " channel " << channel;
          EXPECT_EQ(pending_bytes(cluster.node(n), tile, channel),
                    want_pending)
              << "pending pool diverged: node " << n << " channel " << channel;
        }
      }
    }
  }

  /// Kill the busiest tile's primary mid-traffic on a lossy, reordering
  /// fabric (4 nodes, `replication` replicas per tile), recover it while
  /// clients keep going, and check the outcome.
  static void kill_and_recover_under_faults(std::size_t replication);

  static rf::Environment* env_;
  static campaign::ChannelDataset* data_a_;
  static campaign::ChannelDataset* data_b_;
  static campaign::ChannelDataset* data_a_far_;
  static campaign::ChannelDataset* data_b_far_;
};

rf::Environment* ClusterFixture::env_ = nullptr;
campaign::ChannelDataset* ClusterFixture::data_a_ = nullptr;
campaign::ChannelDataset* ClusterFixture::data_b_ = nullptr;
campaign::ChannelDataset* ClusterFixture::data_a_far_ = nullptr;
campaign::ChannelDataset* ClusterFixture::data_b_far_ = nullptr;

// ------------------------------------------------------- basic routing

TEST_F(ClusterFixture, RouterServesCachedDescriptorBytes) {
  Cluster cluster(base_config(1, 1));
  const TileKey tile = cluster.ingest_campaign(*data_a_);
  cluster.ingest_campaign(*data_b_);
  ClusterRouter router(cluster.topology(), cluster.transport(),
                       cluster.membership());
  const geo::EnuPoint where = cluster.topology().tiling.center(tile);

  const std::string descriptor = router.download_descriptor(kChannelA, where);
  EXPECT_FALSE(descriptor.empty());
  // The router ships the node's cached blob verbatim — no reserialization.
  EXPECT_EQ(descriptor, cluster.node(0).descriptor_bytes(tile, kChannelA));

  std::mt19937_64 rng(7);
  const auto batch =
      wire_roundtrip(kChannelA, make_batch(*data_a_, rng));
  const core::UploadResponse response =
      router.upload(kChannelA, where, "alice", batch);
  EXPECT_EQ(response.accepted + response.rejected + response.pending, 3u);
  EXPECT_EQ(router.stats().requests, 2u);
  EXPECT_EQ(router.stats().failures, 0u);
}

TEST_F(ClusterFixture, PermanentErrorsFailFastWithoutRetry) {
  Cluster cluster(base_config(1, 1));
  const TileKey tile = cluster.ingest_campaign(*data_a_);
  ClusterRouter router(cluster.topology(), cluster.transport(),
                       cluster.membership());
  const geo::EnuPoint where = cluster.topology().tiling.center(tile);

  // Channel 33 was never bootstrapped: kUnknownChannel is permanent, so
  // the router must throw immediately instead of burning the deadline.
  EXPECT_THROW((void)router.download_descriptor(33, where),
               std::runtime_error);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST_F(ClusterFixture, NonReplicaNodeFencesForeignTiles) {
  Cluster cluster(base_config(4, 1));
  const TileKey tile = cluster.ingest_campaign(*data_a_);
  const NodeId owner = cluster.replicas_of(tile)[0];
  NodeId outsider = 0;
  while (outsider == owner) ++outsider;

  const std::string wire = encode_envelope(
      {.verb = "wsnp",
       .from = kClientNode,
       .tile = tile,
       .body = core::encode(core::ModelRequest{.channel = kChannelA})});
  const Envelope reply =
      decode_envelope(cluster.node(outsider).handle(wire));
  const core::Message message = core::decode(reply.body);
  const auto* error = std::get_if<core::ErrorResponse>(&message);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, core::ErrorCode::kNotOwner);
  EXPECT_TRUE(core::is_retryable(error->code));
  EXPECT_EQ(cluster.node(outsider).stats().rejected_not_owner, 1u);
}

TEST_F(ClusterFixture, DuplicateUploadFramesHitTheDedupTable) {
  Cluster cluster(base_config(1, 1));
  const TileKey tile = cluster.ingest_campaign(*data_a_);

  std::mt19937_64 rng(11);
  core::UploadRequest request;
  request.channel = kChannelA;
  request.contributor = "bob";
  request.request_id = 0x5151u;
  request.readings = make_batch(*data_a_, rng);
  const std::string envelope =
      encode_envelope({.verb = "wsnp",
                       .from = kClientNode,
                       .tile = tile,
                       .body = core::encode(request)});

  const std::string first = cluster.transport().send(0, envelope);
  const std::string second = cluster.transport().send(0, envelope);
  // Byte-identical replies: the retransmit returned the original ledger
  // instead of applying twice.
  EXPECT_EQ(first, second);
  EXPECT_EQ(cluster.node(0).stats().dedup_hits, 1u);
  EXPECT_EQ(cluster.node(0).uploads_applied(tile, kChannelA), 1u);
}

// ---------------------------------------------------------- determinism

struct Shape {
  NodeId nodes;
  std::size_t replication;
};

class ClusterDeterminism : public ClusterFixture,
                           public ::testing::WithParamInterface<Shape> {};

// The acceptance bar: for every cluster shape, concurrent routed traffic
// leaves all replicas byte-identical to a single-node serial replay.
TEST_P(ClusterDeterminism, ConcurrentTrafficMatchesSerialReplay) {
  const auto [nodes, replication] = GetParam();
  Cluster cluster(base_config(nodes, replication));
  const TileKey tile_near = cluster.ingest_campaign(*data_a_);
  ASSERT_EQ(cluster.ingest_campaign(*data_b_), tile_near);
  const TileKey tile_far = cluster.ingest_campaign(*data_a_far_);
  ASSERT_EQ(cluster.ingest_campaign(*data_b_far_), tile_far);
  ASSERT_NE(tile_near, tile_far);

  ClusterRouter router(cluster.topology(), cluster.transport(),
                       cluster.membership());
  const Tiling tiling = cluster.topology().tiling;

  constexpr int kThreads = 3;
  constexpr int kOpsPerThread = 12;
  std::vector<std::vector<RecordedUpload>> recorded(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 rng(runtime::split_seed(4242, t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const bool far = (rng() % 2) == 1;
        const int channel = (rng() % 2) == 1 ? kChannelB : kChannelA;
        const TileKey tile = far ? tile_far : tile_near;
        const geo::EnuPoint where = tiling.center(tile);
        const campaign::ChannelDataset& source =
            far ? (channel == kChannelA ? *data_a_far_ : *data_b_far_)
                : (channel == kChannelA ? *data_a_ : *data_b_);
        if (i % 3 == 2) {
          EXPECT_FALSE(router.download_descriptor(channel, where).empty());
        } else {
          RecordedUpload rec;
          rec.tile = tile;
          rec.channel = channel;
          rec.contributor = "client" + std::to_string(t);
          rec.readings = wire_roundtrip(channel, make_batch(source, rng));
          rec.response =
              router.upload(channel, where, rec.contributor, rec.readings);
          recorded[t].push_back(std::move(rec));
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  std::vector<RecordedUpload> all;
  for (auto& per_thread : recorded) {
    for (auto& rec : per_thread) all.push_back(std::move(rec));
  }
  expect_matches_serial_replay(cluster, all);

  EXPECT_EQ(router.stats().failures, 0u);
  for (NodeId n = 0; n < nodes; ++n) {
    EXPECT_EQ(cluster.node(n).stats().ticket_mismatches, 0u);
    EXPECT_EQ(cluster.node(n).stats().repl_abandoned, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ClusterDeterminism,
                         ::testing::Values(Shape{1, 1}, Shape{4, 1},
                                           Shape{4, 2}, Shape{4, 3}),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param.nodes) +
                                  "R" +
                                  std::to_string(info.param.replication);
                         });

// ------------------------------------------------------ fault tolerance

// Kill the busiest tile's primary mid-traffic on a lossy, reordering
// fabric, recover it while clients keep going, and require: every client
// request eventually succeeded, the revived node resynced byte-identical,
// and the whole cluster still equals the serial replay.
void ClusterFixture::kill_and_recover_under_faults(std::size_t replication) {
  ClusterConfig cfg = base_config(4, replication);
  cfg.faults = FaultPlan{.drop_request = 0.08,
                         .drop_response = 0.05,
                         .duplicate_request = 0.05,
                         .delay = 0.25,
                         .max_delay_us = 200,
                         .seed = 77};
  Cluster cluster(std::move(cfg));
  const TileKey tile_near = cluster.ingest_campaign(*data_a_);
  cluster.ingest_campaign(*data_b_);
  const TileKey tile_far = cluster.ingest_campaign(*data_a_far_);
  cluster.ingest_campaign(*data_b_far_);

  RouterConfig router_config;
  router_config.deadline = std::chrono::milliseconds(60'000);  // TSan slack
  router_config.backoff.base = std::chrono::nanoseconds{100'000};
  router_config.backoff.cap = std::chrono::nanoseconds{2'000'000};
  ClusterRouter router(cluster.topology(), cluster.transport(),
                       cluster.membership(), router_config);
  const Tiling tiling = cluster.topology().tiling;

  const NodeId victim = cluster.replicas_of(tile_near)[0];

  constexpr int kThreads = 3;
  constexpr int kOpsPerThread = 16;
  std::vector<std::vector<RecordedUpload>> recorded(kThreads);
  std::vector<std::string> trouble[kThreads];
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 rng(runtime::split_seed(1717, t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const bool far = (rng() % 4) == 3;  // keep the victim's tile busy
        const int channel = (rng() % 2) == 1 ? kChannelB : kChannelA;
        const TileKey tile = far ? tile_far : tile_near;
        const geo::EnuPoint where = tiling.center(tile);
        const campaign::ChannelDataset& source =
            far ? (channel == kChannelA ? *data_a_far_ : *data_b_far_)
                : (channel == kChannelA ? *data_a_ : *data_b_);
        try {
          if (i % 4 == 3) {
            EXPECT_FALSE(router.download_descriptor(channel, where).empty());
          } else {
            RecordedUpload rec;
            rec.tile = tile;
            rec.channel = channel;
            rec.contributor = "client" + std::to_string(t);
            rec.readings = wire_roundtrip(channel, make_batch(source, rng));
            rec.response =
                router.upload(channel, where, rec.contributor, rec.readings);
            recorded[t].push_back(std::move(rec));
          }
        } catch (const std::exception& e) {
          trouble[t].push_back(e.what());
        }
      }
    });
  }

  // Fail-stop the busy tile's primary mid-stream, then bring it back
  // while traffic is still flowing; recover() returns only once the node
  // has resynced every owned tile and is ready again.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  cluster.kill(victim);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  cluster.recover(victim);

  for (std::thread& c : clients) c.join();

  // No request was lost: every upload and download either succeeded
  // directly or via retry/failover.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(trouble[t].empty())
        << "thread " << t << " first failure: " << trouble[t].front();
  }
  EXPECT_EQ(router.stats().failures, 0u);
  EXPECT_GE(cluster.node(victim).stats().snapshots_installed, 1u);

  std::vector<RecordedUpload> all;
  for (auto& per_thread : recorded) {
    for (auto& rec : per_thread) all.push_back(std::move(rec));
  }
  // The revived node is one of the replicas this walks: byte-identity
  // includes the recovered state.
  expect_matches_serial_replay(cluster, all);

  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster.node(n).stats().ticket_mismatches, 0u);
    EXPECT_EQ(cluster.node(n).stats().repl_abandoned, 0u);
  }
}

TEST_F(ClusterFixture, SurvivesPrimaryKillAndRecoveryUnderFaults) {
  kill_and_recover_under_faults(2);
}

// The same with three replicas: a primary killed mid-replication may have
// reached one secondary and not the other.
TEST_F(ClusterFixture, SurvivesPrimaryKillAndRecoveryUnderFaultsR3) {
  kill_and_recover_under_faults(3);
}

// With replication == 1 a killed node's crowd uploads are gone by
// construction; recovery must still restore the trusted bootstrap
// campaigns and resume service (the documented degraded mode).
TEST_F(ClusterFixture, ReplicationOneRecoveryRestoresBootstrapState) {
  Cluster cluster(base_config(2, 1));
  const TileKey tile = cluster.ingest_campaign(*data_a_);
  cluster.ingest_campaign(*data_b_);
  ClusterRouter router(cluster.topology(), cluster.transport(),
                       cluster.membership());
  const geo::EnuPoint where = cluster.topology().tiling.center(tile);

  std::mt19937_64 rng(3);
  const auto batch = wire_roundtrip(kChannelA, make_batch(*data_a_, rng));
  (void)router.upload(kChannelA, where, "alice", batch);

  const NodeId owner = cluster.replicas_of(tile)[0];
  cluster.kill(owner);
  cluster.recover(owner);

  // The upload died with the single copy; the bootstrap campaigns did not.
  EXPECT_EQ(cluster.node(owner).uploads_applied(tile, kChannelA), 0u);
  service::SpectrumService pristine(fast_config());
  pristine.ingest_campaign(cluster.normalized_campaign(tile, 0));
  pristine.ingest_campaign(cluster.normalized_campaign(tile, 1));
  EXPECT_EQ(cluster.node(owner).dataset_csv(tile, kChannelA),
            csv_bytes(pristine.dataset_snapshot(kChannelA)));
  // And the tile serves again.
  EXPECT_FALSE(router.download_descriptor(kChannelA, where).empty());
}

/// Sends a `verb` frame with `body` for `tile` from one of its secondaries
/// to a node outside its replica set, and expects it fenced before
/// anything is decoded or allocated: kNotOwner, one fenced frame counted
/// and no new tile.
void expect_fenced_by_outsider(Cluster& cluster, TileKey tile,
                               const std::string& verb,
                               const std::string& body) {
  const std::vector<NodeId> replicas = cluster.replicas_of(tile);
  NodeId outsider = 0;
  while (std::find(replicas.begin(), replicas.end(), outsider) !=
         replicas.end()) {
    ++outsider;
  }
  ClusterNode& node = cluster.node(outsider);
  const std::vector<TileKey> before = node.tiles();

  const std::string wire = encode_envelope(
      {.verb = verb,
       .from = replicas[1],  // a secondary, not the primary
       .tile = tile,
       .body = body});
  const Envelope reply = decode_envelope(node.handle(wire));
  const core::Message message = core::decode(reply.body);
  const auto* error = std::get_if<core::ErrorResponse>(&message);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, core::ErrorCode::kNotOwner) << error->reason;
  EXPECT_EQ(node.tiles(), before);
  EXPECT_EQ(node.stats().repl_fenced, 1u);
}

// A replication frame from a node that is not the tile's primary, for a
// tile this node does not hold, is fenced before anything is allocated.
TEST_F(ClusterFixture, FencedReplFrameAllocatesNoTile) {
  Cluster cluster(base_config(4, 2));
  const TileKey tile = cluster.ingest_campaign(*data_a_);
  expect_fenced_by_outsider(cluster, tile, "repl",
                            encode_repl_entry({.channel = kChannelA,
                                               .ticket = 0,
                                               .request_id = 9,
                                               .upload_wire = "stray"}));
}

// Fencing comes before the decode: a corrupt replication frame from a
// non-primary is a fenced frame, not an internal error.
TEST_F(ClusterFixture, FencedCorruptReplFrameIsNotDecoded) {
  Cluster cluster(base_config(4, 2));
  const TileKey tile = cluster.ingest_campaign(*data_a_);
  expect_fenced_by_outsider(cluster, tile, "repl", "not an entry");
}

// A state push is fenced the same way, before its snapshot is decoded: a
// corrupt one from a non-primary is a fenced frame, not an internal error.
TEST_F(ClusterFixture, FencedStateFrameIsNotDecoded) {
  Cluster cluster(base_config(4, 2));
  const TileKey tile = cluster.ingest_campaign(*data_a_);
  expect_fenced_by_outsider(cluster, tile, "state", "not a snapshot");
}

// No node keeps a per-upload log: uploads that change nothing but the
// apply ticket grow a pulled snapshot by their dedup records alone.
TEST_F(ClusterFixture, RejectedUploadsGrowTheSnapshotOnlyByTheDedupWindow) {
  Cluster cluster(base_config(2, 2));
  const TileKey tile = cluster.ingest_campaign(*data_a_);
  const NodeId primary = cluster.replicas_of(tile)[0];

  // The best-vouched-for reading, raised far above what its neighbours
  // saw: the correlation check rejects it every time.
  const geo::GridIndex index(data_a_->positions(), 1'000.0);
  std::size_t densest = 0;
  std::size_t most = 0;
  for (std::size_t i = 0; i < data_a_->size(); ++i) {
    const std::size_t n =
        index.query_radius(data_a_->readings[i].position, 1'000.0).size();
    if (n > most) {
      most = n;
      densest = i;
    }
  }
  campaign::Measurement spoof = data_a_->readings[densest];
  spoof.rss_dbm += 60.0;
  spoof.iq.clear();

  const std::size_t before =
      encode_tile_snapshot(pull(cluster.node(primary), tile)).size();
  constexpr std::uint64_t kUploads = 200;
  for (std::uint64_t i = 0; i < kUploads; ++i) {
    core::UploadRequest request;
    request.channel = kChannelA;
    request.contributor = "mallory";
    request.request_id = 1000 + i;
    request.readings = {spoof, spoof, spoof};
    const Envelope reply = decode_envelope(cluster.transport().send(
        primary, encode_envelope({.verb = "wsnp",
                                  .from = kClientNode,
                                  .tile = tile,
                                  .body = core::encode(request)})));
    const core::Message message = core::decode(reply.body);
    const auto* ledger = std::get_if<core::UploadResponse>(&message);
    ASSERT_NE(ledger, nullptr);
    ASSERT_EQ(ledger->rejected, 3u);
  }

  const TileSnapshot after = pull(cluster.node(primary), tile);
  ASSERT_EQ(after.channels.size(), 1u);
  EXPECT_EQ(after.channels[0].uploads_applied(), kUploads);
  EXPECT_LE(after.dedup.size(), kUploads);
  // A dedup record is six varints of at most 10 bytes; the apply ticket's
  // varint may gain a byte.
  EXPECT_LE(encode_tile_snapshot(after).size(),
            before + after.dedup.size() * 60 + 1);
}

// A client whose ack was lost retries within the dedup horizon — against
// a primary that was dead when the upload was applied and has recovered
// since. The recovered primary learned the request id from the state it
// pulled, so the retry returns the original ledger instead of applying
// the batch a second time.
TEST_F(ClusterFixture, RetryWithinTheHorizonDedupsAfterRecovery) {
  Cluster cluster(base_config(2, 2));
  const TileKey tile = cluster.ingest_campaign(*data_a_);
  const std::vector<NodeId> replicas = cluster.replicas_of(tile);
  const NodeId primary = replicas[0];
  const NodeId interim = replicas[1];

  std::mt19937_64 rng(23);
  core::UploadRequest request;
  request.channel = kChannelA;
  request.contributor = "dana";
  request.request_id = 0xACEu;
  request.readings = make_batch(*data_a_, rng);
  const std::string envelope = encode_envelope({.verb = "wsnp",
                                                .from = kClientNode,
                                                .tile = tile,
                                                .body = core::encode(request)});

  cluster.kill(primary);
  // The interim primary applies the upload; its ack never reaches the
  // client.
  const Envelope lost = decode_envelope(cluster.transport().send(interim, envelope));
  const core::Message message = core::decode(lost.body);
  ASSERT_NE(std::get_if<core::UploadResponse>(&message), nullptr);
  cluster.recover(primary);

  const Envelope retry =
      decode_envelope(cluster.transport().send(primary, envelope));
  EXPECT_EQ(retry.body, lost.body);
  EXPECT_EQ(cluster.node(primary).stats().dedup_hits, 1u);
  EXPECT_EQ(cluster.node(primary).stats().uploads_applied, 0u);
  for (const NodeId n : replicas) {
    EXPECT_EQ(cluster.node(n).uploads_applied(tile, kChannelA), 1u);
  }
  EXPECT_EQ(cluster.node(primary).dataset_csv(tile, kChannelA),
            cluster.node(interim).dataset_csv(tile, kChannelA));
  EXPECT_EQ(pending_bytes(cluster.node(primary), tile, kChannelA),
            pending_bytes(cluster.node(interim), tile, kChannelA));
}

// With three replicas a primary can die after its last write reached one
// secondary but not the other. The survivor that takes over finds the gap
// the next time it replicates and repairs the lagging secondary with its
// own tile state, so every replica converges.
TEST_F(ClusterFixture, ReplicaThatMissedADeposedPrimarysWriteIsRepaired) {
  Cluster cluster(base_config(3, 3));
  const TileKey tile = cluster.ingest_campaign(*data_a_);
  const std::vector<NodeId> replicas = cluster.replicas_of(tile);
  const NodeId deposed = replicas[0];
  const NodeId survivor = replicas[1];
  const NodeId lagging = replicas[2];

  std::mt19937_64 rng(31);
  core::UploadRequest last;
  last.channel = kChannelA;
  last.contributor = "erin";
  last.request_id = 0x1u;
  last.readings = make_batch(*data_a_, rng);
  const std::string repl = encode_envelope(
      {.verb = "repl",
       .from = deposed,
       .tile = tile,
       .body = encode_repl_entry({.channel = kChannelA,
                                  .ticket = 0,
                                  .request_id = last.request_id,
                                  .upload_wire = core::encode(last)})});
  ASSERT_EQ(decode_envelope(cluster.transport().send(survivor, repl)).verb,
            "ok");
  cluster.kill(deposed);

  ClusterRouter router(cluster.topology(), cluster.transport(),
                       cluster.membership());
  const geo::EnuPoint where = cluster.topology().tiling.center(tile);
  (void)router.upload(kChannelA, where, "fay",
                      wire_roundtrip(kChannelA, make_batch(*data_a_, rng)));
  EXPECT_GE(cluster.node(survivor).stats().state_pushes, 1u);
  for (const NodeId n : {survivor, lagging}) {
    EXPECT_EQ(cluster.node(n).uploads_applied(tile, kChannelA), 2u)
        << "node " << n;
  }
  EXPECT_EQ(cluster.node(lagging).dataset_csv(tile, kChannelA),
            cluster.node(survivor).dataset_csv(tile, kChannelA));
  EXPECT_EQ(pending_bytes(cluster.node(lagging), tile, kChannelA),
            pending_bytes(cluster.node(survivor), tile, kChannelA));

  // The repaired secondary replicates on like any other: the next write
  // needs no repair, and the recovered node catches up from its peers.
  (void)router.upload(kChannelA, where, "gus",
                      wire_roundtrip(kChannelA, make_batch(*data_a_, rng)));
  cluster.recover(deposed);
  (void)router.upload(kChannelA, where, "hal",
                      wire_roundtrip(kChannelA, make_batch(*data_a_, rng)));
  for (const NodeId n : replicas) {
    EXPECT_EQ(cluster.node(n).uploads_applied(tile, kChannelA), 4u)
        << "node " << n;
    EXPECT_EQ(cluster.node(n).dataset_csv(tile, kChannelA),
              cluster.node(survivor).dataset_csv(tile, kChannelA))
        << "node " << n;
  }
}

// A secondary that comes back as kSyncing while the primary takes writes
// answers the primary's next repl with kNotReady, and one push of the
// primary's tile state catches it up. The recovery pull that follows finds
// the tile synced and changes nothing.
TEST_F(ClusterFixture, SyncingSecondaryIsCaughtUpByOneStatePush) {
  Cluster cluster(base_config(2, 2));
  const TileKey tile = cluster.ingest_campaign(*data_a_);
  const std::vector<NodeId> replicas = cluster.replicas_of(tile);
  const NodeId primary = replicas[0];
  const NodeId secondary = replicas[1];
  ClusterRouter router(cluster.topology(), cluster.transport(),
                       cluster.membership());
  const geo::EnuPoint where = cluster.topology().tiling.center(tile);
  std::mt19937_64 rng(41);
  const auto upload = [&](const char* contributor) {
    (void)router.upload(kChannelA, where, contributor,
                        wire_roundtrip(kChannelA, make_batch(*data_a_, rng)));
  };

  upload("ida");
  cluster.kill(secondary);
  upload("jon");
  cluster.membership().set_health(secondary, NodeHealth::kSyncing);
  upload("kim");

  EXPECT_EQ(cluster.node(primary).stats().state_pushes, 1u);
  EXPECT_EQ(cluster.node(secondary).uploads_applied(tile, kChannelA), 3u);
  EXPECT_EQ(cluster.node(secondary).dataset_csv(tile, kChannelA),
            cluster.node(primary).dataset_csv(tile, kChannelA));

  cluster.recover(secondary);
  upload("lou");
  for (const NodeId n : replicas) {
    EXPECT_EQ(cluster.node(n).uploads_applied(tile, kChannelA), 4u)
        << "node " << n;
  }
  EXPECT_EQ(cluster.node(secondary).dataset_csv(tile, kChannelA),
            cluster.node(primary).dataset_csv(tile, kChannelA));
  EXPECT_EQ(pending_bytes(cluster.node(secondary), tile, kChannelA),
            pending_bytes(cluster.node(primary), tile, kChannelA));
  EXPECT_EQ(cluster.node(primary).stats().state_pushes, 1u);
}

}  // namespace
}  // namespace waldo::cluster
