// Shared scaffolding for the paper-reproduction benches: the standard
// metro environment, the standard campaign (route + calibrated sensors +
// per-channel datasets, built lazily and cached), and fixed-width table
// printing so every bench emits paper-style rows.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/measurement.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/core/features.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/ml/cross_validation.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/sensors/sensor.hpp"

namespace waldo::bench {

enum class SensorKind { kRtlSdr, kUsrpB200, kSpectrumAnalyzer };

[[nodiscard]] const char* sensor_name(SensorKind kind);

/// The standard evaluation world: the metro environment, the 5282-reading
/// war-drive route, calibrated sensor instances, and per-(sensor, channel)
/// datasets with Algorithm 1 labels. Everything is cached after first use
/// so benches can ask for what they need without re-simulating.
class Campaign {
 public:
  /// `num_readings` trades fidelity for runtime; the paper's value is 5282.
  explicit Campaign(std::size_t num_readings = 5282,
                    std::uint64_t seed = 99);

  [[nodiscard]] const rf::Environment& environment() const noexcept {
    return *env_;
  }
  [[nodiscard]] const geo::DrivePath& route() const noexcept {
    return *route_;
  }

  /// Dataset of one sensor on one channel (collected on first request).
  [[nodiscard]] const campaign::ChannelDataset& dataset(SensorKind sensor,
                                                        int channel);

  /// Algorithm 1 labels of that dataset (cached). `correction_db` selects
  /// the antenna-correction variant.
  [[nodiscard]] const std::vector<int>& labels(SensorKind sensor, int channel,
                                               double correction_db = 0.0);

  /// A fresh calibrated sensor instance of a kind (distinct physical unit).
  [[nodiscard]] sensors::Sensor make_sensor(SensorKind kind,
                                            std::uint64_t seed);

 private:
  std::unique_ptr<rf::Environment> env_;
  std::unique_ptr<geo::DrivePath> route_;
  std::map<std::pair<int, int>, campaign::ChannelDataset> datasets_;
  std::map<std::tuple<int, int, int>, std::vector<int>> labels_;
};

/// Paper-protocol evaluation of a plain classifier on one channel: k-fold
/// CV over the dataset's feature matrix and Algorithm 1 labels.
struct EvalConfig {
  std::string classifier = "svm";  ///< "svm" | "naive_bayes" | ...
  int num_features = 3;            ///< paper axis: 1 = location only
  std::size_t folds = 10;
  std::size_t max_train = 800;  ///< per-fold training cap (runtime knob)
  std::uint64_t seed = 17;
  double correction_db = 0.0;  ///< labeling antenna correction
  /// Reproduce the paper's OpenCV pipeline exactly: location expressed in
  /// degrees, raw dB feature units, SVM with C = 1, gamma = 1 and no
  /// standardisation. With those settings a location-only RBF kernel is
  /// nearly uniform (degrees are numerically tiny), which is where the
  /// paper's large location-only errors — and therefore the dramatic gains
  /// from signal features — come from. The library default (standardised
  /// kernel) is the engineering-correct mode; this flag is the
  /// artifact-faithful mode. See EXPERIMENTS.md.
  bool paper_faithful = false;
};

/// Feature matrix in the paper's raw units: (lat_deg, lon_deg[, rss, cft,
/// aft]) with degrees derived from the ENU frame at Atlanta's latitude.
[[nodiscard]] ml::Matrix build_paper_features(
    const campaign::ChannelDataset& data, int num_features);

[[nodiscard]] ml::ConfusionMatrix evaluate_classifier(Campaign& campaign,
                                                      SensorKind sensor,
                                                      int channel,
                                                      const EvalConfig& cfg);

/// Same protocol through the full ModelConstructor (localities k-means +
/// per-cluster classifiers) — what Fig. 13's clustering study needs.
[[nodiscard]] ml::ConfusionMatrix evaluate_waldo_model(
    Campaign& campaign, SensorKind sensor, int channel, std::size_t localities,
    const EvalConfig& cfg);

/// Prints a table header / row with fixed-width columns.
void print_title(const std::string& title);
void print_row(const std::vector<std::string>& cells, int width = 12);
[[nodiscard]] std::string fmt(double value, int decimals = 3);

/// Machine-readable bench output. Benches accept `--json <path>` and, when
/// present, append their results to a JSON document so CI can archive and
/// diff runs (see BENCH_micro_pipeline.json for the committed baseline).
struct BenchRecord {
  std::string name;
  double value = 0.0;
  std::string unit;                ///< e.g. "ns/item", "s", "percent"
  double items_per_second = 0.0;   ///< derived; 0 when not a rate
};

class JsonReport {
 public:
  /// A per-item timing: records ns/item and the derived items/second.
  void add_rate(const std::string& name, double ns_per_item);
  /// A free-form scalar metric.
  void add_value(const std::string& name, double value,
                 const std::string& unit);
  /// Writes `{bench, peak_rss_bytes, results: [...]}` to `path`. Returns
  /// false (and prints to stderr) on I/O failure.
  bool write(const std::string& path, const std::string& bench_name) const;

 private:
  std::vector<BenchRecord> records_;
};

/// Extracts `--json <path>` from argv (removing both tokens so downstream
/// parsers never see them). Returns an empty string when the flag is absent.
[[nodiscard]] std::string json_path_from_args(int& argc, char** argv);

/// Peak resident set size of this process in bytes (0 if unavailable).
[[nodiscard]] long peak_rss_bytes();

}  // namespace waldo::bench
