#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "waldo/ml/svm.hpp"

namespace waldo::bench {

const char* sensor_name(SensorKind kind) {
  switch (kind) {
    case SensorKind::kRtlSdr:
      return "RTL-SDR";
    case SensorKind::kUsrpB200:
      return "USRP B200";
    case SensorKind::kSpectrumAnalyzer:
      return "FieldFox";
  }
  return "?";
}

Campaign::Campaign(std::size_t num_readings, std::uint64_t seed) {
  env_ = std::make_unique<rf::Environment>(rf::make_metro_environment());
  route_ = std::make_unique<geo::DrivePath>(
      campaign::standard_route(*env_, num_readings, seed));
}

sensors::Sensor Campaign::make_sensor(SensorKind kind, std::uint64_t seed) {
  sensors::SensorSpec spec;
  switch (kind) {
    case SensorKind::kRtlSdr:
      spec = sensors::rtl_sdr_spec();
      break;
    case SensorKind::kUsrpB200:
      spec = sensors::usrp_b200_spec();
      break;
    case SensorKind::kSpectrumAnalyzer:
      spec = sensors::spectrum_analyzer_spec();
      break;
  }
  sensors::Sensor sensor(spec, seed);
  if (!sensor.calibration().has_value()) sensor.calibrate();
  return sensor;
}

const campaign::ChannelDataset& Campaign::dataset(SensorKind kind,
                                                  int channel) {
  const auto key = std::make_pair(static_cast<int>(kind), channel);
  auto it = datasets_.find(key);
  if (it != datasets_.end()) return it->second;
  // Distinct unit seed per (sensor, channel) so captures decorrelate.
  sensors::Sensor sensor =
      make_sensor(kind, 1000 + 10 * static_cast<std::uint64_t>(channel) +
                            static_cast<std::uint64_t>(kind));
  return datasets_
      .emplace(key, campaign::collect_channel(*env_, sensor, channel,
                                              route_->readings))
      .first->second;
}

const std::vector<int>& Campaign::labels(SensorKind kind, int channel,
                                         double correction_db) {
  const auto key = std::make_tuple(static_cast<int>(kind), channel,
                                   static_cast<int>(correction_db * 10));
  auto it = labels_.find(key);
  if (it != labels_.end()) return it->second;
  const campaign::ChannelDataset& ds = dataset(kind, channel);
  campaign::LabelingConfig cfg;
  cfg.correction_db = correction_db;
  return labels_
      .emplace(key, campaign::label_readings(ds.positions(), ds.rss_values(),
                                             cfg))
      .first->second;
}

ml::Matrix build_paper_features(const campaign::ChannelDataset& data,
                                int num_features) {
  // Degrees per meter in the local ENU frame at Atlanta's latitude.
  constexpr double kLat0Deg = 33.749;
  const double lat_per_m = 1.0 / 111'320.0;
  const double lon_per_m =
      1.0 / (111'320.0 * std::cos(geo::deg_to_rad(kLat0Deg)));
  ml::Matrix x;
  for (const campaign::Measurement& m : data.readings) {
    std::vector<double> row;
    row.push_back(kLat0Deg + m.position.north_m * lat_per_m);
    row.push_back(-84.388 + m.position.east_m * lon_per_m);
    if (num_features >= 2) row.push_back(m.rss_dbm);
    if (num_features >= 3) row.push_back(m.cft_db);
    if (num_features >= 4) row.push_back(m.aft_db);
    x.push_row(row);
  }
  return x;
}

ml::ConfusionMatrix evaluate_classifier(Campaign& campaign, SensorKind sensor,
                                        int channel, const EvalConfig& cfg) {
  const campaign::ChannelDataset& ds = campaign.dataset(sensor, channel);
  const std::vector<int>& labels =
      campaign.labels(sensor, channel, cfg.correction_db);
  const ml::Matrix x = cfg.paper_faithful
                           ? build_paper_features(ds, cfg.num_features)
                           : core::build_features(ds, cfg.num_features);
  ml::CrossValidationConfig cv;
  cv.folds = cfg.folds;
  cv.seed = cfg.seed;
  cv.max_train_samples = cfg.max_train;
  const auto factory = [&cfg]() -> std::unique_ptr<ml::Classifier> {
    if (cfg.paper_faithful && cfg.classifier == "svm") {
      ml::SvmConfig svm;  // OpenCV CvSVM defaults
      svm.c = 1.0;
      svm.gamma = 1.0;
      svm.standardize = false;
      return std::make_unique<ml::Svm>(svm);
    }
    return core::make_classifier(cfg.classifier);
  };
  return ml::cross_validate(x, labels, factory, cv).overall;
}

ml::ConfusionMatrix evaluate_waldo_model(Campaign& campaign,
                                         SensorKind sensor, int channel,
                                         std::size_t localities,
                                         const EvalConfig& cfg) {
  const campaign::ChannelDataset& ds = campaign.dataset(sensor, channel);
  const std::vector<int>& labels =
      campaign.labels(sensor, channel, cfg.correction_db);
  const auto folds = ml::kfold_indices(ds.size(), cfg.folds, cfg.seed);

  core::ModelConstructorConfig mc;
  mc.classifier = cfg.classifier;
  mc.num_features = cfg.num_features;
  mc.num_localities = localities;
  mc.max_train_samples = cfg.max_train;
  const core::ModelConstructor constructor(mc);

  ml::ConfusionMatrix total;
  for (std::size_t f = 0; f < folds.size(); ++f) {
    campaign::ChannelDataset train;
    train.channel = ds.channel;
    train.sensor_name = ds.sensor_name;
    std::vector<int> train_labels;
    for (std::size_t g = 0; g < folds.size(); ++g) {
      if (g == f) continue;
      for (const std::size_t i : folds[g]) {
        train.readings.push_back(ds.readings[i]);
        train_labels.push_back(labels[i]);
      }
    }
    const core::WhiteSpaceModel model = constructor.build(train, train_labels);
    for (const std::size_t i : folds[f]) {
      const campaign::Measurement& m = ds.readings[i];
      const auto row = core::feature_row(m.position, m.rss_dbm, m.cft_db,
                                         m.aft_db, cfg.num_features);
      total.add(model.predict(row), labels[i]);
    }
  }
  return total;
}

void print_title(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void print_row(const std::vector<std::string>& cells, int width) {
  for (const std::string& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

std::string fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

void JsonReport::add_rate(const std::string& name, double ns_per_item) {
  records_.push_back(BenchRecord{
      .name = name,
      .value = ns_per_item,
      .unit = "ns/item",
      .items_per_second = ns_per_item > 0.0 ? 1e9 / ns_per_item : 0.0});
}

void JsonReport::add_value(const std::string& name, double value,
                           const std::string& unit) {
  records_.push_back(BenchRecord{.name = name, .value = value, .unit = unit});
}

namespace {

/// Minimal JSON string escape (names here are benchmark identifiers, but
/// stay correct for arbitrary input).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

bool JsonReport::write(const std::string& path,
                       const std::string& bench_name) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"bench\": \"" << json_escape(bench_name) << "\",\n"
      << "  \"peak_rss_bytes\": " << peak_rss_bytes() << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const BenchRecord& r = records_[i];
    char buf[256];
    if (r.items_per_second > 0.0) {
      std::snprintf(buf, sizeof(buf),
                    "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": "
                    "\"%s\", \"items_per_second\": %.6g}%s\n",
                    json_escape(r.name).c_str(), r.value,
                    json_escape(r.unit).c_str(), r.items_per_second,
                    i + 1 < records_.size() ? "," : "");
    } else {
      std::snprintf(buf, sizeof(buf),
                    "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": "
                    "\"%s\"}%s\n",
                    json_escape(r.name).c_str(), r.value,
                    json_escape(r.unit).c_str(),
                    i + 1 < records_.size() ? "," : "");
    }
    out << buf;
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

std::string json_path_from_args(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      const std::string path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return path;
    }
  }
  return {};
}

long peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss * 1024;  // Linux reports kilobytes
}

}  // namespace waldo::bench
