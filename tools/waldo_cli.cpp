// waldo — command-line front end to the library.
//
//   waldo simulate --out DIR [--readings N] [--channels 15,46] [--seed S]
//       Run the synthetic three-sensor measurement campaign and write one
//       CSV sweep per (channel, sensor).
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
//
// Flags of simulate, train and model-size:
//   --threads N   worker threads for the parallel stages (0 = all hardware
//                 threads, 1 = serial; results are identical either way —
//                 see docs/CONCURRENCY.md)
// Flag of every command:
//   --timings 1   print the per-stage wall-clock report before exiting
//
// A flag the command does not read is an error (exit 1), so a typo or a
// retired flag is never silently ignored.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "waldo/campaign/dataset_io.hpp"
#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/geo/grid_index.hpp"
#include "waldo/core/features.hpp"
#include "waldo/core/model.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/runtime/stage_timer.hpp"
#include "waldo/runtime/thread_pool.hpp"
#include "waldo/sensors/sensor.hpp"

namespace {

using namespace waldo;

class Args {
 public:
  /// Parses `--flag value` pairs after the command name. Only `flags` and
  /// the global --timings are accepted, each at most once.
  Args(int argc, char** argv, std::vector<std::string_view> flags)
      : flags_(std::move(flags)) {
    flags_.emplace_back("timings");
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --flag, got: " + key);
      }
      key = key.substr(2);
      if (!declared(key)) {
        throw std::invalid_argument("unknown flag --" + key);
      }
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for --" + key);
      }
      if (!values_.emplace(key, argv[++i]).second) {
        throw std::invalid_argument("--" + key + " given twice");
      }
    }
  }

  [[nodiscard]] std::string get(const std::string& key) const {
    const std::string* value = find(key);
    if (value == nullptr) {
      throw std::invalid_argument("missing required flag --" + key);
    }
    return *value;
  }
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const {
    const std::string* value = find(key);
    return value == nullptr ? fallback : *value;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    return maybe_num(key).value_or(fallback);
  }
  [[nodiscard]] std::optional<double> maybe_num(
      const std::string& key) const {
    const std::string* value = find(key);
    if (value == nullptr) return std::nullopt;
    return parse_num(key, *value);
  }
  template <typename T>
  [[nodiscard]] T whole(const std::string& key, T fallback) const {
    const std::string* value = find(key);
    return value == nullptr ? fallback : parse_whole<T>(key, *value);
  }

  /// A whole number in T's range: NaN, fractions and out-of-range values
  /// are rejected, never cast.
  template <typename T>
  [[nodiscard]] static T parse_whole(const std::string& key,
                                     const std::string& value) {
    const double parsed = parse_num(key, value);
    // T's range is [lo, hi): both bounds are powers of two, so exact.
    const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
    const double lo = std::numeric_limits<T>::is_signed ? -hi : 0.0;
    if (!(parsed >= lo && parsed < hi) || std::trunc(parsed) != parsed) {
      throw invalid_number(key, value);
    }
    return static_cast<T>(parsed);
  }

 private:
  [[nodiscard]] bool declared(std::string_view key) const {
    return std::find(flags_.begin(), flags_.end(), key) != flags_.end();
  }
  /// The value given for --key, or null. Reading a flag the command did not
  /// declare is a bug in this file: a user could never set it.
  [[nodiscard]] const std::string* find(const std::string& key) const {
    if (!declared(key)) throw std::logic_error("undeclared flag --" + key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }
  static std::invalid_argument invalid_number(const std::string& key,
                                              const std::string& value) {
    return std::invalid_argument("invalid number for --" + key + ": '" +
                                 value + "'");
  }
  static double parse_num(const std::string& key, const std::string& value) {
    try {
      std::size_t consumed = 0;
      const double parsed = std::stod(value, &consumed);
      if (consumed != value.size()) throw std::invalid_argument(value);
      return parsed;
    } catch (const std::exception&) {
      throw invalid_number(key, value);
    }
  }

  std::vector<std::string_view> flags_;
  std::map<std::string, std::string> values_;
};

std::vector<int> parse_channels(const std::string& list) {
  std::vector<int> out;
  std::istringstream ss(list);
  std::string token;
  while (std::getline(ss, token, ',')) {
    out.push_back(Args::parse_whole<int>("channels", token));
  }
  return out;
}

/// Upper bound on --threads. A stage starts one thread per lane beyond the
/// pool, so a typo must not ask for millions; 256 is well above the
/// hardware threads of any host this runs on.
constexpr unsigned kMaxThreads = 256;

/// The --threads knob of the parallel commands (0 = all hardware threads).
unsigned threads_from(const Args& args) {
  const auto requested = args.whole<unsigned>("threads", 0);
  if (requested > kMaxThreads) {
    throw std::invalid_argument("--threads must be at most " +
                                std::to_string(kMaxThreads));
  }
  return requested;
}

int cmd_simulate(const Args& args) {
  const std::string out_dir = args.get("out");
  const auto readings = args.whole<std::size_t>("readings", 5282);
  const auto seed = args.whole<std::uint64_t>("seed", 99);
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
  cfg.num_features = args.whole<int>("features", 3);
  cfg.num_localities = args.whole<std::size_t>("localities", 3);
  cfg.max_train_samples = args.whole<std::size_t>("max-train", 800);
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
  const int cols = args.whole<int>("cols", 64);
  const int rows = args.whole<int>("rows", 32);

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
    const auto n = args.whole<std::size_t>("readings", 700);
    std::mt19937_64 rng(args.whole<std::uint64_t>("seed", 17));
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
  cfg.num_features = args.whole<int>("features", 3);
  cfg.num_localities = args.whole<std::size_t>("localities", 3);
  cfg.max_train_samples = args.whole<std::size_t>("max-train", 800);
  cfg.threads = threads_from(args);

  const bool as_json = args.whole<int>("json", 0) != 0;
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

/// Every command and the flags it reads, besides the global --timings. The
/// labeling flags are read by every command that runs Algorithm 1.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};
const Command kCommands[] = {
    {"simulate", cmd_simulate, {"out", "readings", "channels", "seed", "threads"}},
    {"label", cmd_label, {"in", "threshold", "separation", "correction"}},
    {"train", cmd_train,
     {"in", "model", "classifier", "features", "localities", "max-train",
      "threads", "threshold", "separation", "correction"}},
    {"predict", cmd_predict, {"model", "east", "north", "rss", "cft", "aft"}},
    {"map", cmd_map, {"model", "in", "cols", "rows"}},
    {"info", cmd_info, {"model"}},
    {"model-size", cmd_model_size,
     {"in", "readings", "seed", "features", "localities", "max-train",
      "threads", "json", "threshold", "separation", "correction"}},
};

void usage() {
  std::printf(
      "waldo — local and low-cost white space detection\n"
      "usage: waldo <simulate|label|train|predict|map|info|model-size> "
      "[--flags]\n"
      "see the header of tools/waldo_cli.cpp for per-command flags\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  const auto it = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const Command& c) { return c.name == command; });
  if (it == std::end(kCommands)) {
    usage();
    return 1;
  }
  try {
    const Args args(argc, argv, it->flags);
    const bool timings = args.whole<int>("timings", 0) != 0;
    const int rc = it->run(args);
    if (timings) {
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
