// Descriptor codec benchmark: per-family binary v1 descriptor sizes and
// encode/decode timings, plus the serving-path
// payoff — download throughput with the cached serialized descriptor
// against re-serializing on every request. The size table is the paper's
// low-bandwidth story (Section 5: descriptors small enough to ship to
// devices); the committed BENCH_model_codec.json baseline comes from the
// reference container.
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "waldo/core/model.hpp"
#include "waldo/service/service.hpp"

using namespace waldo;

namespace {

constexpr const char* kFamilies[] = {"svm", "naive_bayes", "decision_tree",
                                     "knn", "logistic_regression"};

/// Deterministic diagonal field (same generator as `waldo model-size` and
/// tools/make_goldens): the class boundary cuts across the localities so
/// every family serializes a real trained payload, not constants.
campaign::ChannelDataset diagonal_dataset(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 10'000.0);
  std::normal_distribution<double> jitter(0.0, 1.0);
  campaign::ChannelDataset ds;
  ds.channel = 30;
  ds.sensor_name = "synthetic";
  for (std::size_t i = 0; i < n; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{coord(rng), coord(rng)};
    const bool occupied = m.position.east_m + m.position.north_m < 10'000.0;
    m.rss_dbm = (occupied ? -75.0 : -95.0) + jitter(rng);
    m.cft_db = (occupied ? -85.0 : -105.0) + jitter(rng);
    m.aft_db = (occupied ? -95.0 : -108.0) + jitter(rng);
    ds.readings.push_back(m);
  }
  return ds;
}

core::WhiteSpaceModel build_model(const campaign::ChannelDataset& ds,
                                  const std::string& family) {
  core::ModelConstructorConfig cfg;
  cfg.classifier = family;
  cfg.num_features = 3;
  cfg.num_localities = 3;
  return core::ModelConstructor(cfg).build_with_labeling(ds, {});
}

/// Mean ns/call of `fn` over enough iterations to be stable.
template <typename Fn>
double time_ns(Fn&& fn, std::size_t iterations) {
  // One warm-up call keeps first-touch allocation out of the measurement.
  fn();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) fn();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(iterations);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::JsonReport report;
  const campaign::ChannelDataset ds = diagonal_dataset(700, 17);

  bench::print_title("Descriptor wire format: binary v1");
  bench::print_row({"family", "bin B", "enc ns", "dec ns"}, 20);
  constexpr std::size_t kIters = 2'000;
  for (const char* family : kFamilies) {
    const core::WhiteSpaceModel model = build_model(ds, family);
    const std::string binary = model.serialize();
    const double encode_ns =
        time_ns([&] { (void)model.serialize(); }, kIters);
    const double decode_ns = time_ns(
        [&] { (void)core::WhiteSpaceModel::deserialize(binary); }, kIters);
    bench::print_row({family, std::to_string(binary.size()),
                      bench::fmt(encode_ns, 0), bench::fmt(decode_ns, 0)},
                     20);
    const std::string prefix = std::string(family) + "_";
    report.add_value(prefix + "binary_bytes",
                     static_cast<double>(binary.size()), "bytes");
    report.add_rate(prefix + "serialize_binary", encode_ns);
    report.add_rate(prefix + "deserialize_binary", decode_ns);
  }

  // The serving-path payoff: a warmed SpectrumService answering repeated
  // downloads from the cached descriptor vs paying a serialization each
  // time (what every download cost before the cache).
  bench::print_title("Download path: cached descriptor vs re-serialize");
  service::SpectrumService service([] {
    core::ModelConstructorConfig cfg;
    cfg.classifier = "naive_bayes";
    cfg.num_features = 2;
    cfg.num_localities = 3;
    return cfg;
  }());
  service.ingest_campaign(diagonal_dataset(900, 23));
  const int channel = 30;
  (void)service.download_model(channel);  // warm model + descriptor cache

  constexpr std::size_t kDownloads = 20'000;
  const double cached_ns = time_ns(
      [&] { (void)service.download_model(channel); }, kDownloads);
  const auto model = service.model(channel);
  const double reserialize_ns =
      time_ns([&] { (void)model->serialize(); }, kDownloads);

  bench::print_row({"path", "ns/req", "req/s"}, 18);
  bench::print_row({"cached", bench::fmt(cached_ns, 0),
                    bench::fmt(1e9 / cached_ns, 0)},
                   18);
  bench::print_row({"re-serialize", bench::fmt(reserialize_ns, 0),
                    bench::fmt(1e9 / reserialize_ns, 0)},
                   18);
  std::printf("cache payoff: %.1fx\n", reserialize_ns / cached_ns);
  report.add_rate("download_cached", cached_ns);
  report.add_rate("download_reserialize", reserialize_ns);
  report.add_value("cache_payoff", reserialize_ns / cached_ns, "x");

  const service::ServiceCounters counters = service.counters();
  report.add_value("descriptor_cache_hits",
                   static_cast<double>(counters.descriptor_cache_hits),
                   "count");
  report.add_value("descriptor_cache_misses",
                   static_cast<double>(counters.descriptor_cache_misses),
                   "count");

  if (!json_path.empty() && !report.write(json_path, "model_codec")) return 1;
  std::printf("\npeak rss: %.1f MiB\n",
              static_cast<double>(bench::peak_rss_bytes()) / (1024 * 1024));
  return 0;
}
