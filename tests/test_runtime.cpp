// waldo::runtime — thread pool semantics (exception propagation, empty
// ranges, nested submits) and the determinism contract: every parallel
// stage must produce results bit-identical to its serial execution,
// because per-task randomness is split from (root seed, task index)
// instead of drawn from a shared sequential engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "waldo/campaign/wardrive.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/runtime/backoff.hpp"
#include "waldo/runtime/histogram.hpp"
#include "waldo/runtime/parallel.hpp"
#include "waldo/runtime/seed.hpp"
#include "waldo/runtime/stage_timer.hpp"
#include "waldo/runtime/thread_pool.hpp"
#include "waldo/sensors/sensor.hpp"

namespace waldo {
namespace {

// --- thread pool / parallel_for_lanes ----------------------------------

TEST(ParallelFor, EmptyRangeIsANoop) {
  bool touched = false;
  runtime::parallel_for_lanes(
      0, 8, [&](std::size_t, std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  runtime::parallel_for_lanes(
      kCount, 8, [&](std::size_t, std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, SerialWhenThreadsIsOne) {
  // threads = 1 must run on the calling thread, in index order.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  runtime::parallel_for_lanes(64, 1, [&](std::size_t, std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  try {
    runtime::parallel_for_lanes(1000, 8, [](std::size_t, std::size_t i) {
      if (i == 137) throw std::runtime_error("boom at 137");
    });
    FAIL() << "expected the body's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 137");
  }
}

TEST(ParallelFor, ExceptionAbandonsRemainingIndices) {
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(runtime::parallel_for_lanes(100'000, 4,
                                           [&](std::size_t, std::size_t i) {
                                             ++executed;
                                             if (i == 0) {
                                               throw std::runtime_error(
                                                   "stop");
                                             }
                                           }),
               std::runtime_error);
  // The throwing index stops the fetch-add distribution; far fewer than
  // all indices run (each in-flight worker may finish its current one).
  EXPECT_LT(executed.load(), 100'000u);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  std::vector<std::atomic<int>> hits(32 * 32);
  runtime::parallel_for_lanes(32, 0, [&](std::size_t, std::size_t outer) {
    runtime::parallel_for_lanes(32, 0, [&](std::size_t, std::size_t inner) {
      ++hits[outer * 32 + inner];
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, WorkersAreReusedAcrossCalls) {
  // Submitting through the same global pool repeatedly must not leak or
  // wedge; this is the pattern every bench uses.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    runtime::parallel_for_lanes(64, 0, [&](std::size_t, std::size_t i) {
      sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(ParallelForLanes, CoversEveryIndexAndBoundsLanes) {
  const std::size_t lanes = runtime::parallel_lane_count(500, 4);
  EXPECT_GE(lanes, 1u);
  EXPECT_LE(lanes, 4u);
  std::vector<std::atomic<int>> seen(500);
  std::atomic<bool> lane_out_of_range{false};
  runtime::parallel_for_lanes(500, 4, [&](std::size_t lane, std::size_t i) {
    if (lane >= lanes) lane_out_of_range = true;
    seen[i]++;
  });
  EXPECT_FALSE(lane_out_of_range.load());
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ParallelForLanes, EachLaneOwnedByOneExecutorAtATime) {
  // The workspace contract: two tasks on the same lane never overlap, so
  // lane-indexed scratch needs no synchronisation. Tripping the in_use
  // flag from two threads at once would mean the contract is broken.
  const std::size_t lanes = runtime::parallel_lane_count(2000, 8);
  std::vector<std::atomic<bool>> in_use(lanes);
  std::atomic<bool> overlap{false};
  runtime::parallel_for_lanes(2000, 8, [&](std::size_t lane, std::size_t) {
    if (in_use[lane].exchange(true)) overlap = true;
    in_use[lane] = false;
  });
  EXPECT_FALSE(overlap.load());
}

TEST(ParallelForLanes, SerialPathUsesLaneZeroInOrder) {
  EXPECT_EQ(runtime::parallel_lane_count(100, 1), 1u);
  EXPECT_EQ(runtime::parallel_lane_count(0, 8), 1u);
  EXPECT_EQ(runtime::parallel_lane_count(1, 8), 1u);
  std::vector<std::size_t> order;
  runtime::parallel_for_lanes(20, 1, [&](std::size_t lane, std::size_t i) {
    EXPECT_EQ(lane, 0u);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelMap, PreservesIndexOrder) {
  // Index-owned output slots: the pattern a parallel map follows.
  std::vector<std::size_t> out(1000);
  runtime::parallel_for_lanes(
      out.size(), 8, [&](std::size_t, std::size_t i) { out[i] = i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ResolveThreadsHonoursExplicitRequests) {
  EXPECT_EQ(runtime::resolve_threads(1), 1u);
  EXPECT_EQ(runtime::resolve_threads(7), 7u);
  EXPECT_GE(runtime::resolve_threads(0), 1u);
  EXPECT_GE(runtime::hardware_threads(), 1u);
}

// --- seed splitting ------------------------------------------------------

TEST(SeedSplit, DeterministicAndDecorrelated) {
  EXPECT_EQ(runtime::split_seed(23, 4), runtime::split_seed(23, 4));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t root : {0ull, 1ull, 23ull, 99ull}) {
    for (std::uint64_t stream = 0; stream < 64; ++stream) {
      seeds.insert(runtime::split_seed(root, stream));
    }
  }
  // 4 roots x 64 streams, all distinct.
  EXPECT_EQ(seeds.size(), 4u * 64u);
}

// --- stage timer ---------------------------------------------------------

TEST(StageTimer, AccumulatesScopesAndRecords) {
  runtime::StageTimer timer;
  timer.record("train", 0.5, 3);
  timer.record("train", 0.25, 2);
  { const auto scope = timer.scope("collect", 10); }
  const auto stages = timer.stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_DOUBLE_EQ(stages.at("train").seconds, 0.75);
  EXPECT_EQ(stages.at("train").calls, 2u);
  EXPECT_EQ(stages.at("train").items, 5u);
  EXPECT_EQ(stages.at("collect").calls, 1u);
  EXPECT_NE(timer.report().find("train"), std::string::npos);
  const runtime::StageTimer fresh;
  EXPECT_TRUE(fresh.stages().empty());
  EXPECT_TRUE(fresh.report().empty());
}

// --- latency histogram ---------------------------------------------------

TEST(LatencyHistogram, EmptySnapshotIsZero) {
  runtime::LatencyHistogram h;
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.max_ns, 0u);
  EXPECT_DOUBLE_EQ(snap.p50_ns, 0.0);
  EXPECT_DOUBLE_EQ(snap.p99_ns, 0.0);
}

TEST(LatencyHistogram, QuantilesWithinBucketResolution) {
  runtime::LatencyHistogram h;
  // Uniform 1..100000 ns: p50 ~ 50000, p90 ~ 90000, p99 ~ 99000. The
  // log-linear buckets guarantee ~6 % relative resolution.
  for (std::uint64_t v = 1; v <= 100'000; ++v) h.record(v);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 100'000u);
  EXPECT_EQ(snap.max_ns, 100'000u);
  EXPECT_NEAR(snap.p50_ns, 50'000.0, 0.07 * 50'000.0);
  EXPECT_NEAR(snap.p90_ns, 90'000.0, 0.07 * 90'000.0);
  EXPECT_NEAR(snap.p99_ns, 99'000.0, 0.07 * 99'000.0);
}

TEST(LatencyHistogram, TinyAndHugeValuesLandInRange) {
  runtime::LatencyHistogram h;
  h.record(0);
  h.record(3);
  h.record(std::uint64_t{3'600'000'000'000});  // one hour in ns
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.max_ns, std::uint64_t{3'600'000'000'000});
  EXPECT_GE(snap.p99_ns, 1e12);  // the hour dominates the tail
  EXPECT_LE(snap.p50_ns, 4.0);   // the small values hold the median down
}

TEST(LatencyHistogram, ConcurrentRecordsAllCounted) {
  runtime::LatencyHistogram h;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      std::mt19937_64 rng(runtime::split_seed(3, t));
      std::uniform_int_distribution<std::uint64_t> value(1, 1'000'000);
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.record(value(rng));
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_LE(snap.p50_ns, snap.p90_ns);
  EXPECT_LE(snap.p90_ns, snap.p99_ns);
  EXPECT_LE(snap.p99_ns, static_cast<double>(snap.max_ns) * 1.07);
}

// Regression: bucket-midpoint interpolation reported quantiles above the
// observed maximum (a single 17 ns sample produced p99 = 17.5 ns), and a
// value past the last octave indexed out of the bucket array. Quantiles
// now clamp to max_ns and the bucket index saturates.
TEST(LatencyHistogram, SingleSampleQuantilesNeverExceedTheSample) {
  runtime::LatencyHistogram h;
  h.record(17);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max_ns, 17u);
  EXPECT_DOUBLE_EQ(snap.p50_ns, 17.0);
  EXPECT_DOUBLE_EQ(snap.p90_ns, 17.0);
  EXPECT_DOUBLE_EQ(snap.p99_ns, 17.0);
}

TEST(LatencyHistogram, ValuesBeyondTheLastBucketSaturate) {
  runtime::LatencyHistogram h;
  h.record(std::numeric_limits<std::uint64_t>::max());
  h.record(1);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.max_ns, std::numeric_limits<std::uint64_t>::max());
  EXPECT_LE(snap.p99_ns, static_cast<double>(snap.max_ns));
  EXPECT_GE(snap.p99_ns, 1e15);  // landed in the top octave, not bucket 0
}

// --- backoff -------------------------------------------------------------

TEST(Backoff, SameStreamReplaysTheSameSchedule) {
  const runtime::BackoffConfig config{.seed = 42};
  runtime::Backoff a(config, 7);
  runtime::Backoff b(config, 7);
  runtime::Backoff other(config, 8);
  bool diverged = false;
  for (int i = 0; i < 8; ++i) {
    const auto da = a.next();
    EXPECT_EQ(da, b.next());
    diverged = diverged || (da != other.next());
  }
  EXPECT_TRUE(diverged);  // distinct streams decorrelate
  EXPECT_EQ(a.attempts(), 8u);
  a.reset(7);
  b.reset(7);
  EXPECT_EQ(a.next(), b.next());
}

TEST(Backoff, DelaysGrowExponentiallyAndSaturateAtTheCap) {
  runtime::BackoffConfig config;
  config.base = std::chrono::nanoseconds{1'000};
  config.cap = std::chrono::nanoseconds{64'000};
  config.multiplier = 2.0;
  config.jitter = 0.0;  // deterministic ladder
  runtime::Backoff backoff(config);
  std::int64_t expected = 1'000;
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(backoff.next().count(), expected);
    expected *= 2;
  }
  // 2^6 * 1000 = 64000 hits the cap; everything after stays there.
  EXPECT_EQ(backoff.next().count(), 64'000);
  EXPECT_EQ(backoff.next().count(), 64'000);
}

TEST(Backoff, JitterStaysInsideTheConfiguredBand) {
  runtime::BackoffConfig config;
  config.base = std::chrono::nanoseconds{10'000};
  config.cap = std::chrono::nanoseconds{10'000};  // freeze raw at 10 us
  config.jitter = 0.5;
  config.seed = 3;
  runtime::Backoff backoff(config, 1);
  for (int i = 0; i < 64; ++i) {
    const std::int64_t d = backoff.next().count();
    EXPECT_GE(d, 5'000);   // raw * (1 - jitter)
    EXPECT_LT(d, 10'000);  // u < 1 keeps it strictly under raw
  }
}

// --- determinism: serial == parallel across the pipeline -----------------

/// Synthetic two-region dataset (west occupied, east vacant).
campaign::ChannelDataset make_split_dataset(std::size_t n,
                                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 10'000.0);
  std::normal_distribution<double> jitter(0.0, 1.0);
  campaign::ChannelDataset ds;
  ds.channel = 30;
  ds.sensor_name = "synthetic";
  for (std::size_t i = 0; i < n; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{coord(rng), coord(rng)};
    const bool west = m.position.east_m < 5000.0;
    m.rss_dbm = (west ? -75.0 : -95.0) + jitter(rng);
    m.cft_db = (west ? -85.0 : -105.0) + jitter(rng);
    m.aft_db = (west ? -95.0 : -108.0) + jitter(rng);
    ds.readings.push_back(m);
  }
  return ds;
}

std::vector<int> split_labels(const campaign::ChannelDataset& ds) {
  std::vector<int> labels;
  labels.reserve(ds.size());
  for (const auto& m : ds.readings) {
    labels.push_back(m.position.east_m < 5000.0 ? ml::kNotSafe : ml::kSafe);
  }
  return labels;
}

TEST(Determinism, ModelBuildIsByteIdenticalAcrossThreadCounts) {
  const auto ds = make_split_dataset(900, 11);
  const auto labels = split_labels(ds);
  for (const char* kind : {"svm", "naive_bayes"}) {
    core::ModelConstructorConfig cfg;
    cfg.classifier = kind;
    cfg.num_localities = 5;
    cfg.num_features = 3;
    // Exercise the per-locality subsample RNG, the one stage whose
    // randomness the seed-splitting contract has to pin down.
    cfg.max_train_samples = 100;
    cfg.threads = 1;
    const auto serial = core::ModelConstructor(cfg).build(ds, labels);
    cfg.threads = 8;
    const auto parallel = core::ModelConstructor(cfg).build(ds, labels);
    EXPECT_EQ(serial.serialize(), parallel.serialize()) << kind;
  }
}

TEST(Determinism, CollectChannelIsThreadInvariantAndReproducible) {
  const rf::Environment env = rf::make_metro_environment();
  const geo::DrivePath route = campaign::standard_route(env, 300, 21);
  sensors::Sensor rtl(sensors::rtl_sdr_spec(), 3);
  rtl.calibrate();

  campaign::CollectOptions serial;
  serial.threads = 1;
  campaign::CollectOptions parallel;
  parallel.threads = 8;
  const auto a = campaign::collect_channel(env, rtl, 30, route.readings,
                                           serial);
  const auto b = campaign::collect_channel(env, rtl, 30, route.readings,
                                           parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.readings[i].raw, b.readings[i].raw) << i;
    EXPECT_EQ(a.readings[i].rss_dbm, b.readings[i].rss_dbm) << i;
    EXPECT_EQ(a.readings[i].cft_db, b.readings[i].cft_db) << i;
    EXPECT_EQ(a.readings[i].aft_db, b.readings[i].aft_db) << i;
  }
  // Different channels must not share noise streams.
  const auto other = campaign::collect_channel(env, rtl, 15, route.readings,
                                               serial);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size() && !any_different; ++i) {
    any_different = a.readings[i].raw != other.readings[i].raw;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace waldo
