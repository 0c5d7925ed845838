// Pins what ModelConstructor::build writes: digests of the serialized
// descriptors over a grid of channels, dataset sizes, feature counts,
// locality counts, classifier families, training caps and thread counts.
// A change to the build that means to keep its output byte for byte must
// leave every digest as it is; one that means to move it regenerates the
// table (the failure message prints the digests it computed).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/sensors/sensor.hpp"

namespace waldo {
namespace {

constexpr int kChannels[] = {15, 21, 46, 47};

/// One channel of the serving benchmark's world, as test_rebuild_cost
/// builds it: the metro environment, the standard 5,282-reading route, a
/// calibrated USRP, centred on the route's centroid.
campaign::ChannelDataset serving_sweep(const rf::Environment& env,
                                       const geo::DrivePath& route,
                                       int channel) {
  sensors::Sensor sensor(sensors::usrp_b200_spec(), 1000 + 10 * channel + 1);
  if (!sensor.calibration().has_value()) sensor.calibrate();
  campaign::ChannelDataset ds =
      campaign::collect_channel(env, sensor, channel, route.readings);
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

/// A channel of n readings and their Algorithm 1 labels. Up to the sweep's
/// size it is every (size / n)-th sweep reading with its label in the
/// whole sweep, so that even a few readings span the route and both
/// labels; past it, the sweep followed by copies of its readings moved up
/// to 40 m, the way accepted crowd uploads grow a channel
/// (bench_micro_pipeline's grown_channel), labeled whole.
struct Sized {
  campaign::ChannelDataset data;
  std::vector<int> labels;
};

Sized sized(const campaign::ChannelDataset& sweep, std::size_t n) {
  Sized out;
  out.data = sweep;
  std::mt19937_64 rng(10);
  std::uniform_int_distribution<std::size_t> pick(0, sweep.size() - 1);
  std::uniform_real_distribution<double> jitter(-40.0, 40.0);
  while (out.data.size() < n) {
    campaign::Measurement m = sweep.readings[pick(rng)];
    m.position.east_m += jitter(rng);
    m.position.north_m += jitter(rng);
    out.data.readings.push_back(std::move(m));
  }
  out.labels = campaign::label_readings(out.data.positions(),
                                        out.data.rss_values());
  const std::size_t size = out.data.size();
  for (std::size_t j = 0; j < n; ++j) {
    out.data.readings[j] = out.data.readings[j * size / n];
    out.labels[j] = out.labels[j * size / n];
  }
  out.data.readings.resize(n);
  out.labels.resize(n);
  return out;
}

/// 64-bit FNV-1a over a sequence of byte strings, each prefixed by its
/// length.
class Digest {
 public:
  void add(const std::string& bytes) {
    const std::uint64_t size = bytes.size();
    for (int i = 0; i < 8; ++i) {
      mix(static_cast<unsigned char>(size >> (8 * i)));
    }
    for (const char c : bytes) mix(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(h_));
    return out;
  }

 private:
  void mix(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

class BuildDigest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const rf::Environment env = rf::make_metro_environment();
    const geo::DrivePath route = campaign::standard_route(env, 5282, 99);
    sweeps_ = new std::vector<campaign::ChannelDataset>();
    for (const int ch : kChannels) {
      sweeps_->push_back(serving_sweep(env, route, ch));
    }
  }
  static void TearDownTestSuite() {
    delete sweeps_;
    sweeps_ = nullptr;
  }

  /// Adds to `digest` the descriptors of every (feature count, locality
  /// count, training cap) build of `family` over `channel`, each built
  /// serially and on four threads, which must agree byte for byte.
  static void digest_builds(const std::string& family, const Sized& channel,
                            Digest& digest) {
    const campaign::ChannelDataset& ds = channel.data;
    const std::vector<int>& labels = channel.labels;
    for (int nf = 1; nf <= 4; ++nf) {
      const core::TrainingColumns columns = core::training_columns(ds, nf);
      for (const std::size_t k : {1u, 3u, 5u}) {
        for (const std::size_t cap : {0u, 50u}) {
          core::ModelConstructorConfig config;
          config.classifier = family;
          config.num_features = nf;
          config.num_localities = k;
          config.max_train_samples = cap;
          config.threads = 1;
          const std::string serial =
              core::ModelConstructor(config).build(columns, labels).serialize();
          config.threads = 4;
          const std::string parallel =
              core::ModelConstructor(config).build(columns, labels).serialize();
          EXPECT_EQ(serial, parallel)
              << family << " ch" << ds.channel << " n" << ds.size() << " nf"
              << nf << " k" << k << " cap" << cap;
          digest.add(serial);
        }
      }
    }
  }

  /// Compares computed digests with the expected table, printing every
  /// computed one on a mismatch.
  static void expect_table(const std::map<std::string, std::string>& got,
                           const std::map<std::string, std::string>& want) {
    std::string table;
    for (const auto& [key, hex] : got) {
      table += "      {\"" + key + "\", \"" + hex + "\"},\n";
    }
    EXPECT_EQ(got, want) << "computed digests:\n" << table;
  }

  static std::vector<campaign::ChannelDataset>* sweeps_;
};

std::vector<campaign::ChannelDataset>* BuildDigest::sweeps_ = nullptr;

// Naive Bayes, the serving model's family, at every size from a near-empty
// channel to one grown almost threefold by crowd uploads.
TEST_F(BuildDigest, NaiveBayesOverSizesFeaturesAndLocalities) {
  std::map<std::string, std::string> got;
  for (const campaign::ChannelDataset& sweep : *sweeps_) {
    for (const std::size_t n : {3u, 10u, 200u, 5'282u, 15'000u}) {
      Digest digest;
      digest_builds("naive_bayes", sized(sweep, n), digest);
      got["ch" + std::to_string(sweep.channel) + " n" + std::to_string(n)] =
          digest.hex();
    }
  }
  expect_table(got, {
      {"ch15 n10", "71c2633f7b697241"},
      {"ch15 n15000", "3d739e3ceaad3e1d"},
      {"ch15 n200", "4645825f5fc32465"},
      {"ch15 n3", "5b38514dc9541f0d"},
      {"ch15 n5282", "83b45c808884cbd8"},
      {"ch21 n10", "8c1a8c764baf9323"},
      {"ch21 n15000", "0d7041886e16e6a7"},
      {"ch21 n200", "ff625f6a12148a18"},
      {"ch21 n3", "fd1442c1067adcf5"},
      {"ch21 n5282", "37f8e35abc95db05"},
      {"ch46 n10", "9090296d25838aa3"},
      {"ch46 n15000", "3c91f06531dec12d"},
      {"ch46 n200", "5b23f6cbf9f918f3"},
      {"ch46 n3", "a723fa49377e1015"},
      {"ch46 n5282", "ed7ab9d9fc93e4e2"},
      {"ch47 n10", "60b0df5b290005cb"},
      {"ch47 n15000", "893dd20d94bab0d0"},
      {"ch47 n200", "058400900f9b52c5"},
      {"ch47 n3", "9255fdb25e0f9989"},
      {"ch47 n5282", "3eece5f1a687d28f"},
  });
}

// Every other classifier family at 200 readings.
TEST_F(BuildDigest, EveryOtherFamilyAt200Readings) {
  std::map<std::string, std::string> got;
  for (const char* family :
       {"svm", "logistic_regression", "decision_tree", "knn"}) {
    for (const campaign::ChannelDataset& sweep : *sweeps_) {
      Digest digest;
      digest_builds(family, sized(sweep, 200), digest);
      got[std::string(family) + " ch" + std::to_string(sweep.channel)] =
          digest.hex();
    }
  }
  expect_table(got, {
      {"decision_tree ch15", "d9db23244124b007"},
      {"decision_tree ch21", "aac4710144de1fab"},
      {"decision_tree ch46", "fb385956db2b5d1d"},
      {"decision_tree ch47", "39ac7d0fac0cfa54"},
      {"knn ch15", "fd05ec022570cf40"},
      {"knn ch21", "7d113259e2e190e2"},
      {"knn ch46", "89217278b7723854"},
      {"knn ch47", "b843a8f03eb29f3c"},
      {"logistic_regression ch15", "e0806d8c1705249f"},
      {"logistic_regression ch21", "241e39c33f979252"},
      {"logistic_regression ch46", "57aa92c5d04fb78b"},
      {"logistic_regression ch47", "923335b6a26e401c"},
      {"svm ch15", "8cac57a53983af2b"},
      {"svm ch21", "87ddaddeba77afab"},
      {"svm ch46", "52f1cb4619f68b8c"},
      {"svm ch47", "aff5fe6849764c4f"},
  });
}

}  // namespace
}  // namespace waldo
