// waldo — command-line front end to the library.
//
//   waldo simulate --out DIR [--readings N] [--channels 15,46] [--seed S]
//       [--fast-spectral 1]
//       Run the synthetic three-sensor measurement campaign and write one
//       CSV sweep per (channel, sensor). --fast-spectral 1 computes the
//       CFT/AFT features straight from the synthesized spectrum (skips the
//       ifft/fft round trip; agrees with the exact path to ~1e-10 dB).
//
// Global flags (any command):
//   --threads N   worker threads for the parallel stages (0 = all hardware
//                 threads, 1 = serial; results are identical either way —
//                 see docs/CONCURRENCY.md)
//   --timings 1   print the per-stage wall-clock report before exiting
//   waldo label --in sweep.csv [--threshold -84] [--separation 6000]
//       [--correction 0]
//       Apply Algorithm 1 to a sweep and print the occupancy summary.
//   waldo train --in sweep.csv --model out.wsm [--classifier svm]
//       [--features 3] [--localities 3] [--max-train 800]
//       Build a White Space Detection Model from a sweep, written as a
//       binary v1 descriptor (docs/WIRE_FORMAT.md). Every model-reading
//       command rejects any other file.
//   waldo predict --model m.wsm --east E --north N [--rss R] [--cft C]
//       [--aft A]
//       Classify one location (meters in the campaign's ENU frame).
//   waldo map --model m.wsm --in sweep.csv [--cols 64] [--rows 32]
//       ASCII map of the model's decisions over the sweep's bounding box.
//   waldo info --model m.wsm
//       Print a model descriptor's vital statistics.
//   waldo model-size [--in sweep.csv] [--readings 700] [--seed 17]
//       [--features 3] [--localities 3] [--max-train 800] [--json 1]
//       Train every classifier family on one dataset and report its
//       binary descriptor size — the paper's Section 5 ~4 kB Naive Bayes
//       vs ~40 kB SVM comparison. --json 1 emits the table as JSON on
//       stdout.
//   waldo serve-bench [--readings 900] [--channels 15,46] [--requests 4000]
//       [--workers 0] [--upload-pct 15] [--rebuild-threshold 25] [--seed 33]
//       Stand up the concurrent serving layer (waldo::service) over a
//       synthetic campaign and drive a mixed download/upload workload
//       through the wire protocol; prints throughput and the frontend's
//       ServiceStats (p50/p99 handle latency, rebuilds, bytes served).
//   waldo cluster-bench [--nodes 4] [--replication 2] [--readings 500]
//       [--requests 240] [--clients 3] [--upload-pct 15] [--kill 1]
//       [--drop-pct 5] [--seed 33]
//       Stand up the multi-node cluster tier (waldo::cluster): N
//       in-process nodes behind a ClusterRouter, two bootstrapped metro
//       tiles, a lossy fault-injected transport, and (with --kill 1) a
//       mid-run kill + recovery of a tile primary. Prints throughput,
//       retry/failover counts and the router's failover-latency
//       percentiles. See docs/CLUSTER.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "waldo/campaign/dataset_io.hpp"
#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/cluster/cluster.hpp"
#include "waldo/cluster/router.hpp"
#include "waldo/geo/grid_index.hpp"
#include "waldo/core/features.hpp"
#include "waldo/core/model.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/core/protocol.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/runtime/seed.hpp"
#include "waldo/runtime/stage_timer.hpp"
#include "waldo/runtime/thread_pool.hpp"
#include "waldo/sensors/sensor.hpp"
#include "waldo/service/frontend.hpp"
#include "waldo/service/service.hpp"

namespace {

using namespace waldo;

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --flag, got: " + key);
      }
      key = key.substr(2);
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for --" + key);
      }
      values_[key] = argv[++i];
    }
  }

  [[nodiscard]] std::string get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing required flag --" + key);
    }
    return it->second;
  }
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : parse_num(key, it->second);
  }
  [[nodiscard]] std::optional<double> maybe_num(
      const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return parse_num(key, it->second);
  }

 private:
  static double parse_num(const std::string& key, const std::string& value) {
    try {
      std::size_t consumed = 0;
      const double parsed = std::stod(value, &consumed);
      if (consumed != value.size()) throw std::invalid_argument(value);
      return parsed;
    } catch (const std::exception&) {
      throw std::invalid_argument("invalid number for --" + key + ": '" +
                                  value + "'");
    }
  }

  std::map<std::string, std::string> values_;
};

std::vector<int> parse_channels(const std::string& list) {
  std::vector<int> out;
  std::istringstream ss(list);
  std::string token;
  while (std::getline(ss, token, ',')) out.push_back(std::stoi(token));
  return out;
}

/// The --threads knob shared by every command (0 = all hardware threads).
unsigned threads_from(const Args& args) {
  const double requested = args.num("threads", 0);
  if (requested < 0) {
    throw std::invalid_argument("--threads must be >= 0");
  }
  return static_cast<unsigned>(requested);
}

int cmd_simulate(const Args& args) {
  const std::string out_dir = args.get("out");
  const auto readings =
      static_cast<std::size_t>(args.num("readings", 5282));
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 99));
  std::vector<int> channels(rf::kPaperChannels.begin(),
                            rf::kPaperChannels.end());
  if (const std::string list = args.get_or("channels", ""); !list.empty()) {
    channels = parse_channels(list);
  }

  const rf::Environment world = rf::make_metro_environment();
  const geo::DrivePath route = campaign::standard_route(world, readings,
                                                        seed);
  std::printf("route: %zu readings, %.0f km\n", route.readings.size(),
              route.total_length_m / 1000.0);
  std::filesystem::create_directories(out_dir);

  struct Unit {
    const char* tag;
    sensors::Sensor sensor;
  };
  Unit units[] = {{"fieldfox",
                   sensors::Sensor(sensors::spectrum_analyzer_spec(), seed)},
                  {"rtlsdr", sensors::Sensor(sensors::rtl_sdr_spec(),
                                             seed + 1)},
                  {"usrp", sensors::Sensor(sensors::usrp_b200_spec(),
                                           seed + 2)}};
  for (Unit& u : units) {
    if (!u.sensor.calibration().has_value()) u.sensor.calibrate();
  }
  campaign::CollectOptions collect;
  collect.threads = threads_from(args);
  collect.fast_spectral = args.num("fast-spectral", 0) != 0;
  for (const int ch : channels) {
    for (Unit& u : units) {
      const auto sweep = campaign::collect_channel(world, u.sensor, ch,
                                                   route.readings, collect);
      const std::string path = out_dir + "/ch" + std::to_string(ch) + "_" +
                               u.tag + ".csv";
      campaign::write_csv_file(path, sweep);
      std::printf("wrote %s (%zu readings)\n", path.c_str(), sweep.size());
    }
  }
  return 0;
}

campaign::LabelingConfig labeling_from(const Args& args) {
  campaign::LabelingConfig cfg;
  cfg.threshold_dbm = args.num("threshold", cfg.threshold_dbm);
  cfg.separation_m = args.num("separation", cfg.separation_m);
  cfg.correction_db = args.num("correction", cfg.correction_db);
  return cfg;
}

int cmd_label(const Args& args) {
  const campaign::ChannelDataset ds =
      campaign::read_csv_file(args.get("in"));
  const auto labels = campaign::label_readings(
      ds.positions(), ds.rss_values(), labeling_from(args));
  std::size_t safe = 0;
  for (const int l : labels) safe += l == ml::kSafe ? 1 : 0;
  std::printf("channel %d (%s): %zu readings, %zu safe (%.1f%%), %zu not "
              "safe\n",
              ds.channel, ds.sensor_name.c_str(), labels.size(), safe,
              100.0 * campaign::safe_fraction(labels),
              labels.size() - safe);
  return 0;
}

int cmd_train(const Args& args) {
  const campaign::ChannelDataset ds =
      campaign::read_csv_file(args.get("in"));
  core::ModelConstructorConfig cfg;
  cfg.classifier = args.get_or("classifier", "svm");
  cfg.num_features = static_cast<int>(args.num("features", 3));
  cfg.num_localities =
      static_cast<std::size_t>(args.num("localities", 3));
  cfg.max_train_samples =
      static_cast<std::size_t>(args.num("max-train", 800));
  cfg.threads = threads_from(args);
  const core::WhiteSpaceModel model =
      core::ModelConstructor(cfg).build_with_labeling(ds,
                                                      labeling_from(args));
  const std::string path = args.get("model");
  const std::string bytes = model.serialize();
  std::ofstream out(path, std::ios::binary);
  if (!out.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error("cannot write " + path);
  }
  std::printf("trained %s model for channel %d: %zu localities (%zu "
              "constant), %zu bytes (binary v1) -> %s\n",
              model.classifier_kind().c_str(), model.channel(),
              model.num_localities(), model.num_constant_localities(),
              bytes.size(), path.c_str());
  return 0;
}

core::WhiteSpaceModel load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  // deserialize() accepts binary v1 descriptors only; anything else
  // throws codec::Error.
  return core::WhiteSpaceModel::deserialize(buffer.str());
}

int cmd_predict(const Args& args) {
  const core::WhiteSpaceModel model = load_model(args.get("model"));
  const geo::EnuPoint p{args.num("east", 0.0), args.num("north", 0.0)};
  if (model.num_features() >= 2 && !args.maybe_num("rss").has_value()) {
    throw std::invalid_argument(
        "this model uses signal features; pass at least --rss");
  }
  const double rss = args.num("rss", -90.0);
  const auto row = core::feature_row(p, rss, args.num("cft", rss - 11.3),
                                     args.num("aft", rss - 20.0),
                                     model.num_features());
  const int decision = model.predict(row);
  std::printf("channel %d at (%.0f, %.0f): %s\n", model.channel(), p.east_m,
              p.north_m,
              decision == ml::kSafe ? "SAFE (white space available)"
                                    : "NOT SAFE (protected)");
  return decision == ml::kSafe ? 0 : 2;
}

int cmd_map(const Args& args) {
  const core::WhiteSpaceModel model = load_model(args.get("model"));
  const campaign::ChannelDataset ds =
      campaign::read_csv_file(args.get("in"));
  const geo::BoundingBox box = geo::BoundingBox::of(ds.positions());
  const int cols = static_cast<int>(args.num("cols", 64));
  const int rows = static_cast<int>(args.num("rows", 32));

  // Nearest-reading features drive the prediction at each cell.
  const geo::GridIndex index(ds.positions(), 1000.0);
  for (int r = rows - 1; r >= 0; --r) {
    std::string line;
    for (int c = 0; c < cols; ++c) {
      const geo::EnuPoint p{
          box.min_east_m + (c + 0.5) / cols * box.width_m(),
          box.min_north_m + (r + 0.5) / rows * box.height_m()};
      const campaign::Measurement& near =
          ds.readings[index.nearest(p)];
      const auto row = core::feature_row(p, near.rss_dbm, near.cft_db,
                                         near.aft_db, model.num_features());
      line += model.predict(row) == ml::kSafe ? '.' : '+';
    }
    std::printf("%s\n", line.c_str());
  }
  std::printf("channel %d: '+' not safe, '.' white space (%dx%d cells over "
              "%.0f km^2)\n",
              model.channel(), cols, rows, box.area_km2());
  return 0;
}

int cmd_info(const Args& args) {
  const core::WhiteSpaceModel model = load_model(args.get("model"));
  std::printf("channel:        %d\n", model.channel());
  std::printf("classifier:     %s\n", model.classifier_kind().c_str());
  std::printf("features:       %d (", model.num_features());
  for (int f = 1; f <= model.num_features(); ++f) {
    std::printf("%s%s", f > 1 ? ", " : "", core::feature_name(f));
  }
  std::printf(")\n");
  std::printf("localities:     %zu (%zu constant)\n", model.num_localities(),
              model.num_constant_localities());
  if (const auto constant = model.constant_label()) {
    std::printf("area-wide:      %s (cacheable without sensing)\n",
                *constant == ml::kSafe ? "SAFE" : "NOT SAFE");
  }
  std::printf("descriptor:     %zu bytes\n", model.descriptor_size_bytes());
  return 0;
}

int cmd_model_size(const Args& args) {
  // One dataset, every classifier family: the paper's Section 5 model-size
  // comparison. Defaults to a deterministic synthetic
  // split field so the command works without a campaign on disk.
  campaign::ChannelDataset ds;
  if (const std::string in = args.get_or("in", ""); !in.empty()) {
    ds = campaign::read_csv_file(in);
  } else {
    const auto n = static_cast<std::size_t>(args.num("readings", 700));
    std::mt19937_64 rng(static_cast<std::uint64_t>(args.num("seed", 17)));
    std::uniform_real_distribution<double> coord(0.0, 10'000.0);
    std::normal_distribution<double> jitter(0.0, 1.0);
    ds.channel = 30;
    ds.sensor_name = "synthetic";
    // Diagonal boundary: it cuts across the k-means localities, so each
    // locality trains a real classifier instead of collapsing constant.
    for (std::size_t i = 0; i < n; ++i) {
      campaign::Measurement m;
      m.position = geo::EnuPoint{coord(rng), coord(rng)};
      const bool occupied =
          m.position.east_m + m.position.north_m < 10'000.0;
      m.rss_dbm = (occupied ? -75.0 : -95.0) + jitter(rng);
      m.cft_db = (occupied ? -85.0 : -105.0) + jitter(rng);
      m.aft_db = (occupied ? -95.0 : -108.0) + jitter(rng);
      ds.readings.push_back(m);
    }
  }

  core::ModelConstructorConfig cfg;
  cfg.num_features = static_cast<int>(args.num("features", 3));
  cfg.num_localities = static_cast<std::size_t>(args.num("localities", 3));
  cfg.max_train_samples =
      static_cast<std::size_t>(args.num("max-train", 800));
  cfg.threads = threads_from(args);

  const bool as_json = args.num("json", 0) != 0;
  static constexpr const char* kFamilies[] = {
      "svm", "naive_bayes", "decision_tree", "knn", "logistic_regression"};
  if (as_json) {
    std::printf("{\n  \"suite\": \"model_size\",\n  \"records\": [\n");
  } else {
    std::printf("%-22s %12s\n", "family", "binary B");
  }
  bool first = true;
  for (const char* family : kFamilies) {
    cfg.classifier = family;
    const core::WhiteSpaceModel model =
        core::ModelConstructor(cfg).build_with_labeling(ds,
                                                        labeling_from(args));
    const std::size_t binary_bytes = model.serialize().size();
    if (as_json) {
      std::printf("%s    {\"family\": \"%s\", \"binary_bytes\": %zu}",
                  first ? "" : ",\n", family, binary_bytes);
      first = false;
    } else {
      std::printf("%-22s %12zu\n", family, binary_bytes);
    }
  }
  if (as_json) std::printf("\n  ]\n}\n");
  return 0;
}

int cmd_serve_bench(const Args& args) {
  const auto readings = static_cast<std::size_t>(args.num("readings", 900));
  const auto requests = static_cast<std::size_t>(args.num("requests", 4000));
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 33));
  const double upload_pct = args.num("upload-pct", 15.0);
  if (upload_pct < 0.0 || upload_pct > 100.0) {
    throw std::invalid_argument("--upload-pct must be in [0, 100]");
  }
  const unsigned workers =
      static_cast<unsigned>(args.num("workers", 0));
  std::vector<int> channels{15, 46};
  if (const std::string list = args.get_or("channels", ""); !list.empty()) {
    channels = parse_channels(list);
  }

  // Bootstrap: one synthetic sweep per channel into the serving layer.
  const rf::Environment world = rf::make_metro_environment();
  const geo::DrivePath route = campaign::standard_route(world, readings,
                                                        seed);
  sensors::Sensor usrp(sensors::usrp_b200_spec(), seed + 1);
  usrp.calibrate();
  core::ModelConstructorConfig mc;
  mc.classifier = "naive_bayes";
  mc.num_features = 2;
  core::UploadPolicy policy;
  policy.rebuild_threshold =
      static_cast<std::size_t>(args.num("rebuild-threshold", 25));
  service::SpectrumService service(mc, campaign::LabelingConfig{}, policy);
  std::map<int, campaign::ChannelDataset> sweeps;
  for (const int channel : channels) {
    campaign::ChannelDataset sweep =
        campaign::collect_channel(world, usrp, channel, route.readings);
    sweeps.emplace(channel, sweep);
    service.ingest_campaign(std::move(sweep));
  }
  service::ServiceFrontend frontend(service, workers);
  // Warm every model so the steady-state numbers aren't one-off builds.
  for (const int channel : channels) (void)service.model(channel);
  std::printf("serving %zu channels x %zu readings on %u workers\n",
              channels.size(), readings, frontend.workers());

  // Pre-encode the workload so the measured section is serving only.
  std::mt19937_64 rng(runtime::split_seed(seed, 2));
  std::uniform_real_distribution<double> roll(0.0, 100.0);
  std::vector<std::string> wires;
  wires.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const int channel = channels[rng() % channels.size()];
    if (roll(rng) < upload_pct) {
      const campaign::ChannelDataset& sweep = sweeps.at(channel);
      std::uniform_int_distribution<std::size_t> pick(0, sweep.size() - 1);
      std::uniform_real_distribution<double> jitter(-40.0, 40.0);
      core::UploadRequest up;
      up.channel = channel;
      up.contributor = "bench" + std::to_string(i % 7);
      for (int r = 0; r < 3; ++r) {
        campaign::Measurement m = sweep.readings[pick(rng)];
        m.position.east_m += jitter(rng);
        m.position.north_m += jitter(rng);
        m.iq.clear();
        up.readings.push_back(std::move(m));
      }
      wires.push_back(core::encode(up));
    } else {
      wires.push_back(core::encode(core::ModelRequest{.channel = channel}));
    }
  }

  std::vector<std::future<std::string>> replies;
  replies.reserve(wires.size());
  const auto start = std::chrono::steady_clock::now();
  for (std::string& wire : wires) replies.push_back(
      frontend.submit(std::move(wire)));
  for (auto& reply : replies) (void)reply.get();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const service::ServiceStats stats = frontend.stats();
  std::printf("\n%zu requests in %.3f s  (%.0f req/s)\n", requests, seconds,
              static_cast<double>(requests) / seconds);
  std::printf("requests served:  %llu (%llu errors)\n",
              static_cast<unsigned long long>(stats.requests_served),
              static_cast<unsigned long long>(stats.error_responses));
  std::printf("model downloads:  %llu (%.1f MiB served)\n",
              static_cast<unsigned long long>(stats.model_downloads),
              static_cast<double>(stats.bytes_served) / (1024.0 * 1024.0));
  std::printf("uploads:          %llu accepted, %llu rejected, %llu pending\n",
              static_cast<unsigned long long>(stats.uploads_accepted),
              static_cast<unsigned long long>(stats.uploads_rejected),
              static_cast<unsigned long long>(stats.uploads_pending));
  std::printf("model rebuilds:   %llu\n",
              static_cast<unsigned long long>(stats.rebuilds));
  std::printf("descriptor cache: %llu hits, %llu misses (%.1f MiB from "
              "cache)\n",
              static_cast<unsigned long long>(stats.descriptor_cache_hits),
              static_cast<unsigned long long>(stats.descriptor_cache_misses),
              static_cast<double>(stats.bytes_from_cache) /
                  (1024.0 * 1024.0));
  std::printf("handle latency:   p50 %.1f us, p99 %.1f us, max %llu us\n",
              stats.p50_handle_us, stats.p99_handle_us,
              static_cast<unsigned long long>(stats.max_handle_us));
  return 0;
}

int cmd_cluster_bench(const Args& args) {
  const auto nodes =
      static_cast<cluster::NodeId>(args.num("nodes", 4));
  const auto replication =
      static_cast<std::size_t>(args.num("replication", 2));
  const auto readings = static_cast<std::size_t>(args.num("readings", 500));
  const auto requests = static_cast<std::size_t>(args.num("requests", 240));
  const auto clients = static_cast<int>(args.num("clients", 3));
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 33));
  const double upload_pct = args.num("upload-pct", 15.0);
  const double drop_pct = args.num("drop-pct", 5.0);
  const bool kill = args.num("kill", 1) != 0;
  if (upload_pct < 0.0 || upload_pct > 100.0) {
    throw std::invalid_argument("--upload-pct must be in [0, 100]");
  }
  if (drop_pct < 0.0 || drop_pct > 50.0) {
    throw std::invalid_argument("--drop-pct must be in [0, 50]");
  }
  if (clients < 1) throw std::invalid_argument("--clients must be >= 1");

  // Two synthetic metro areas, two channels each — area 2 is the same
  // sweep conducted 400 km east, which lands it in a different tile.
  constexpr int kChannels[] = {15, 46};
  constexpr double kAreaOffset = 400'000.0;
  const rf::Environment world = rf::make_metro_environment();
  const geo::DrivePath route =
      campaign::standard_route(world, readings, seed);
  sensors::Sensor usrp(sensors::usrp_b200_spec(), seed + 1);
  usrp.calibrate();

  cluster::ClusterConfig config;
  config.num_nodes = nodes;
  config.replication = replication;
  config.tile_size_m = 200'000.0;
  config.constructor_config.classifier = "naive_bayes";
  config.constructor_config.num_features = 2;
  config.upload_policy.rebuild_threshold =
      static_cast<std::size_t>(args.num("rebuild-threshold", 25));
  config.faults.drop_request = drop_pct / 100.0;
  config.faults.drop_response = drop_pct / 200.0;
  config.faults.duplicate_request = drop_pct / 200.0;
  config.faults.delay = 0.2;
  config.faults.max_delay_us = 100;
  config.faults.seed = seed;
  cluster::Cluster clu(std::move(config));

  std::vector<campaign::ChannelDataset> sweeps;
  for (const int channel : kChannels) {
    sweeps.push_back(
        campaign::collect_channel(world, usrp, channel, route.readings));
  }
  for (const int channel : kChannels) {
    campaign::ChannelDataset far =
        sweeps[channel == kChannels[0] ? 0 : 1];
    for (campaign::Measurement& m : far.readings) {
      m.position.east_m += kAreaOffset;
    }
    sweeps.push_back(std::move(far));
  }
  std::vector<cluster::TileKey> tiles;
  tiles.push_back(clu.ingest_campaign(sweeps[0]));
  clu.ingest_campaign(sweeps[1]);
  tiles.push_back(clu.ingest_campaign(sweeps[2]));
  clu.ingest_campaign(sweeps[3]);
  std::printf("cluster: %u node(s), replication %zu, %zu tiles, "
              "drop %.1f%%\n",
              nodes, replication, tiles.size(), drop_pct);
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    std::printf("  tile (%d,%d) replicas:", tiles[i].tx, tiles[i].ty);
    for (const cluster::NodeId n : clu.replicas_of(tiles[i])) {
      std::printf(" %u", n);
    }
    std::printf("\n");
  }

  cluster::RouterConfig router_config;
  router_config.deadline = std::chrono::milliseconds(60'000);
  router_config.backoff.base = std::chrono::nanoseconds{100'000};
  router_config.backoff.cap = std::chrono::nanoseconds{2'000'000};
  cluster::ClusterRouter router(clu.topology(), clu.transport(),
                                clu.membership(), router_config);

  const std::size_t per_client =
      std::max<std::size_t>(1, requests / static_cast<std::size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> traffic;
  for (int t = 0; t < clients; ++t) {
    traffic.emplace_back([&, t] {
      std::mt19937_64 rng(runtime::split_seed(seed, 100 + t));
      std::uniform_real_distribution<double> roll(0.0, 100.0);
      std::uniform_real_distribution<double> jitter(-40.0, 40.0);
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t area = rng() % 2;
        const std::size_t slot = rng() % 2;
        const int channel = kChannels[slot];
        const campaign::ChannelDataset& sweep = sweeps[area * 2 + slot];
        const geo::EnuPoint where =
            clu.topology().tiling.center(tiles[area]);
        if (roll(rng) < upload_pct) {
          std::uniform_int_distribution<std::size_t> pick(0,
                                                          sweep.size() - 1);
          std::vector<campaign::Measurement> batch;
          for (int r = 0; r < 3; ++r) {
            campaign::Measurement m = sweep.readings[pick(rng)];
            m.position.east_m += jitter(rng);
            m.position.north_m += jitter(rng);
            m.iq.clear();
            batch.push_back(std::move(m));
          }
          (void)router.upload(channel, where, "cli" + std::to_string(t),
                              batch);
        } else {
          (void)router.download_descriptor(channel, where);
        }
      }
    });
  }

  const cluster::NodeId victim = clu.replicas_of(tiles[0])[0];
  if (kill && nodes > 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    std::printf("\nkilling node %u (primary of tile (%d,%d))...\n", victim,
                tiles[0].tx, tiles[0].ty);
    clu.kill(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    clu.recover(victim);
    std::printf("node %u recovered and resynced\n", victim);
  }
  for (std::thread& t : traffic) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const cluster::RouterStats stats = router.stats();
  const std::size_t total = per_client * static_cast<std::size_t>(clients);
  std::printf("\n%zu requests in %.3f s  (%.0f req/s over %d clients)\n",
              total, seconds, static_cast<double>(total) / seconds, clients);
  std::printf("uploads/downloads: %llu / %llu\n",
              static_cast<unsigned long long>(stats.uploads),
              static_cast<unsigned long long>(stats.downloads));
  std::printf("retries: %llu, failovers: %llu, permanent failures: %llu\n",
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.failures));
  std::printf("request latency:  p50 %.1f us, p99 %.1f us\n",
              stats.request_latency.p50_ns / 1e3,
              stats.request_latency.p99_ns / 1e3);
  std::printf("failover latency: p50 %.1f us, p99 %.1f us (%llu requests)\n",
              stats.failover_latency.p50_ns / 1e3,
              stats.failover_latency.p99_ns / 1e3,
              static_cast<unsigned long long>(stats.failover_latency.count));
  for (cluster::NodeId n = 0; n < nodes; ++n) {
    const cluster::NodeStats ns = clu.node(n).stats();
    std::printf("node %u: %llu uploads, %llu repl applied, %llu downloads, "
                "%llu dedup hits%s\n",
                n, static_cast<unsigned long long>(ns.uploads_applied),
                static_cast<unsigned long long>(ns.repl_applied),
                static_cast<unsigned long long>(ns.downloads_served),
                static_cast<unsigned long long>(ns.dedup_hits),
                kill && n == victim ? "  (killed + recovered)" : "");
  }
  return stats.failures == 0 ? 0 : 1;
}

void usage() {
  std::printf(
      "waldo — local and low-cost white space detection\n"
      "usage: waldo <simulate|label|train|predict|map|info|model-size|"
      "serve-bench|cluster-bench> [--flags]\n"
      "see the header of tools/waldo_cli.cpp for per-command flags\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv);
    int rc = 1;
    if (command == "simulate") {
      rc = cmd_simulate(args);
    } else if (command == "label") {
      rc = cmd_label(args);
    } else if (command == "train") {
      rc = cmd_train(args);
    } else if (command == "predict") {
      rc = cmd_predict(args);
    } else if (command == "map") {
      rc = cmd_map(args);
    } else if (command == "info") {
      rc = cmd_info(args);
    } else if (command == "model-size") {
      rc = cmd_model_size(args);
    } else if (command == "serve-bench") {
      rc = cmd_serve_bench(args);
    } else if (command == "cluster-bench") {
      rc = cmd_cluster_bench(args);
    } else {
      usage();
      return 1;
    }
    if (args.num("timings", 0) != 0) {
      const std::string report = runtime::StageTimer::global().report();
      std::printf("\nstage timings (%u hardware threads):\n%s",
                  runtime::hardware_threads(),
                  report.empty() ? "(no stages recorded)\n" : report.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "waldo %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
