// Rebuild cost gate: a serving rebuild of a grown channel must allocate
// nothing that grows with the channel, and so take almost no page faults.
//
// A rebuild has O(n) buffers: the column snapshot, the k-means assignment
// and seeding distances, and one block of every reading's feature row and
// label, grouped by locality, that each locality trains on. Allocated afresh on every rebuild, they stay off mmap only while glibc's
// dynamic mmap threshold sits above their size, and a store whose other
// allocations shrink falls off that cliff: each rebuild maps its buffers
// anew and page-faults every 4 KiB page of them.
//
// main() pins both glibc thresholds at 128 KiB, the worst case: every
// allocation of 128 KiB or more is mmapped and every free of one is
// unmapped. This executable replaces operator new to count every
// allocation, the bytes requested and the allocations of 64 KiB or more,
// and reads the calling thread's minor faults with getrusage. It is built into no other binary, and the sanitizer jobs leave
// it out: they replace the allocator it measures.
#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "waldo/campaign/wardrive.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/sensors/sensor.hpp"
#include "waldo/service/service.hpp"

namespace {

constexpr std::size_t kLargeAllocation = 64 * 1024;
std::atomic<std::uint64_t> g_large_allocations{0};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t size) {
  if (size >= kLargeAllocation) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace waldo {
namespace {

[[nodiscard]] long thread_minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

/// One channel of the serving benchmark's world: the metro environment,
/// the standard 5,282-reading route, a calibrated USRP on channel 15,
/// centred on its centroid.
campaign::ChannelDataset serving_sweep() {
  constexpr int kChannel = 15;
  const rf::Environment env = rf::make_metro_environment();
  const geo::DrivePath route = campaign::standard_route(env, 5282, 99);
  sensors::Sensor sensor(sensors::usrp_b200_spec(), 1000 + 10 * kChannel + 1);
  if (!sensor.calibration().has_value()) sensor.calibrate();
  campaign::ChannelDataset ds =
      campaign::collect_channel(env, sensor, kChannel, route.readings);
  geo::EnuPoint centroid{};
  for (const campaign::Measurement& m : ds.readings) {
    centroid.east_m += m.position.east_m;
    centroid.north_m += m.position.north_m;
  }
  const double n = static_cast<double>(ds.readings.size());
  for (campaign::Measurement& m : ds.readings) {
    m.position.east_m -= centroid.east_m / n;
    m.position.north_m -= centroid.north_m / n;
  }
  return ds;
}

/// Honest crowd readings: stored sweep readings moved up to 40 m, as the
/// serving benchmark's uploads move them.
class Crowd {
 public:
  explicit Crowd(const campaign::ChannelDataset& sweep) : sweep_(&sweep) {}

  std::vector<campaign::Measurement> batch(std::size_t size) {
    std::uniform_int_distribution<std::size_t> pick(
        0, sweep_->readings.size() - 1);
    std::uniform_real_distribution<double> jitter(-40.0, 40.0);
    std::vector<campaign::Measurement> out;
    for (std::size_t i = 0; i < size; ++i) {
      campaign::Measurement m = sweep_->readings[pick(rng_)];
      m.position.east_m += jitter(rng_);
      m.position.north_m += jitter(rng_);
      out.push_back(std::move(m));
    }
    return out;
  }

 private:
  const campaign::ChannelDataset* sweep_;
  std::mt19937_64 rng_{34};
};

/// The serving benchmark's model: naive Bayes over location and RSS, three
/// localities.
core::ModelConstructorConfig serving_model_config() {
  core::ModelConstructorConfig mc;
  mc.classifier = "naive_bayes";
  mc.num_features = 2;
  mc.num_localities = 3;
  return mc;
}

/// Most minor faults one measured step may take. A step appends three
/// readings to the stored columns and rebuilds with reused buffers, so
/// it faults only where a column or a reused buffer first writes a fresh
/// 4 KiB page as it creeps past the last one it touched, or where the heap
/// hands a small allocation a fresh page: a handful at most. A rebuild
/// that maps even one O(n) buffer afresh takes a fault per page of it,
/// about 30 for the 120 KB k-means assignment at 15,000 readings.
constexpr long kMaxFaultsPerStep = 8;

/// Most heap allocations, of any size, and most bytes they may request in
/// one measured step, at each channel size: the counts measured (GCC 12.2,
/// glibc 2.36), as ceilings. Nothing in a step allocates per stored
/// reading. The upload allocates the request's readings, the contributor's
/// strings and the screen's per-batch buffers; the rebuild, per trained
/// locality, the classifier and its four moment vectors (naive Bayes),
/// then the locality list, the model and the descriptor string as it
/// grows. The bytes follow the channel's
/// density, not its size as such: the screen collects each uploaded
/// reading's neighbourhood RSS into a vector made per batch
/// (channel_state.cpp), about 1,000 values at 30,000 readings.
struct StepCeilings {
  std::uint64_t allocations;
  std::uint64_t bytes;
};

[[nodiscard]] StepCeilings step_ceilings(std::size_t readings) {
  return readings <= 15'000 ? StepCeilings{45, 10'802}
                            : StepCeilings{46, 19'226};
}

class RebuildCost : public ::testing::TestWithParam<std::size_t> {};

/// Grows the channel to `target` readings, then takes the measured steps.
void grow_then_measure(const campaign::ChannelDataset& sweep,
                       std::size_t target) {
  const int channel = sweep.channel;
  service::SpectrumService service(serving_model_config());
  service.ingest_campaign(sweep);
  Crowd crowd(sweep);
  std::size_t stored = sweep.size();
  while (stored < target) {
    const auto readings = crowd.batch(std::min<std::size_t>(64, target - stored));
    stored += service.upload_measurements(channel, readings, "grower").accepted;
  }
  ASSERT_EQ(service.dataset_snapshot(channel).size(), stored);

  const auto step = [&] {
    const auto readings = crowd.batch(3);
    const core::UploadResult r =
        service.upload_measurements(channel, readings, "dev");
    stored += r.accepted;
    return service.download_descriptor(channel)->size();
  };
  for (int i = 0; i < 3; ++i) (void)step();

  const StepCeilings ceilings = step_ceilings(target);
  const std::uint64_t built_before = service.counters().models_built;
  std::uint64_t most_allocations = 0;
  std::uint64_t most_bytes = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t large = g_large_allocations.load();
    const std::uint64_t allocations = g_allocations.load();
    const std::uint64_t allocated = g_allocated_bytes.load();
    const long faults = thread_minor_faults();
    const std::size_t bytes = step();
    const long step_faults = thread_minor_faults() - faults;
    const std::uint64_t step_allocations = g_allocations.load() - allocations;
    const std::uint64_t step_bytes = g_allocated_bytes.load() - allocated;
    most_allocations = std::max(most_allocations, step_allocations);
    most_bytes = std::max(most_bytes, step_bytes);
    EXPECT_EQ(g_large_allocations.load() - large, 0u)
        << "step " << i << " at " << stored << " readings";
    EXPECT_LE(step_faults, kMaxFaultsPerStep)
        << "step " << i << " at " << stored << " readings";
    EXPECT_LE(step_allocations, ceilings.allocations)
        << "step " << i << " at " << stored << " readings";
    EXPECT_LE(step_bytes, ceilings.bytes)
        << "step " << i << " at " << stored << " readings";
    EXPECT_GT(bytes, 0u);
  }
  std::printf("at %zu readings: at most %llu allocations, %llu bytes a step\n",
              stored, static_cast<unsigned long long>(most_allocations),
              static_cast<unsigned long long>(most_bytes));
  // Every step rebuilt: the gate measured rebuilds, not cache hits.
  EXPECT_EQ(service.counters().models_built - built_before, 20u);
}

// After three warm-up rebuilds, each of 20 steps (a 3-reading upload, then
// the download that rebuilds the model) makes no allocation of 64 KiB or
// more and at most kMaxFaultsPerStep minor faults. Each size runs on a
// thread of its own, whose build workspace starts empty, so that the
// result does not depend on which sizes ran before it.
TEST_P(RebuildCost, GrownChannelRebuildsAllocateNothingLarge) {
  static const campaign::ChannelDataset sweep = serving_sweep();
  std::thread([&] { grow_then_measure(sweep, GetParam()); }).join();
}

INSTANTIATE_TEST_SUITE_P(Readings, RebuildCost,
                         ::testing::Values(std::size_t{15'000},
                                           std::size_t{30'000}),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

}  // namespace
}  // namespace waldo

int main(int argc, char** argv) {
  // The worst case for a rebuild that allocates its buffers afresh:
  // every block of 128 KiB or more is mmapped and unmapped on free, and
  // the heap top is trimmed back past 128 KiB of free space.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
