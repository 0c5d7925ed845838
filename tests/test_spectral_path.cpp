// End-to-end bit-identity of the allocation-free spectral hot path: the
// workspace/plan-cache machinery must leave raw readings, features, and
// serialized models byte-for-byte unchanged, at any thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/core/features.hpp"
#include "waldo/core/model.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/runtime/seed.hpp"
#include "waldo/sensors/sensor.hpp"

namespace waldo {
namespace {

/// FNV-1a over raw bytes — the fingerprint used to compare artifacts that
/// must be byte-identical.
class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add_bytes(&v, sizeof(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t dataset_fingerprint(const campaign::ChannelDataset& ds) {
  Fnv1a h;
  for (const campaign::Measurement& m : ds.readings) {
    h.add(m.position.east_m);
    h.add(m.position.north_m);
    h.add(m.raw);
    h.add(m.rss_dbm);
    h.add(m.cft_db);
    h.add(m.aft_db);
    h.add(m.true_rss_dbm);
    for (const dsp::cplx& s : m.iq) {
      h.add(s.real());
      h.add(s.imag());
    }
  }
  return h.value();
}

std::uint64_t model_fingerprint(const core::WhiteSpaceModel& model) {
  const std::string bytes = model.serialize();
  Fnv1a h;
  h.add_bytes(bytes.data(), bytes.size());
  return h.value();
}

class SpectralPathTest : public ::testing::Test {
 protected:
  static constexpr int kChannel = 30;

  SpectralPathTest() : env_(rf::make_metro_environment()) {
    route_ = campaign::standard_route(env_, 160, 99).readings;
    sensor_ = std::make_unique<sensors::Sensor>(sensors::rtl_sdr_spec(), 42);
    sensor_->calibrate();
  }

  rf::Environment env_;
  std::vector<geo::EnuPoint> route_;
  std::unique_ptr<sensors::Sensor> sensor_;
};

// sense_channel_into with a reused workspace must reproduce the exact bytes
// of the allocating sense_channel across many consecutive readings.
TEST_F(SpectralPathTest, SenseChannelIntoMatchesAllocatingBytes) {
  dsp::CaptureWorkspace ws;
  for (std::uint64_t stream = 0; stream < 32; ++stream) {
    const double power = -70.0 - static_cast<double>(stream % 11);
    const sensors::SensorReading ref = sensor_->sense_channel(power, stream);
    const double raw = sensor_->sense_channel_into(power, stream, ws);
    ASSERT_EQ(raw, ref.raw) << "stream=" << stream;
    ASSERT_EQ(ws.time.size(), ref.iq.size());
    ASSERT_EQ(std::memcmp(ws.time.data(), ref.iq.data(),
                          ref.iq.size() * sizeof(dsp::cplx)),
              0)
        << "stream=" << stream;
  }
}

// The collected dataset — and the model built from it — must fingerprint
// identically at threads=1 and threads=4.
TEST_F(SpectralPathTest, CollectChannelByteIdenticalAcrossThreadCounts) {
  campaign::CollectOptions serial{.threads = 1};
  campaign::CollectOptions fanout{.threads = 4};
  const auto ds1 =
      campaign::collect_channel(env_, *sensor_, kChannel, route_, serial);
  const auto ds4 =
      campaign::collect_channel(env_, *sensor_, kChannel, route_, fanout);
  EXPECT_EQ(dataset_fingerprint(ds1), dataset_fingerprint(ds4));
}

// Per-reading cross-check against the raw building blocks: the workspace
// pipeline in collect_channel computes exactly the allocating
// extract_spectral_features of exactly sense_channel's capture.
TEST_F(SpectralPathTest, CollectChannelMatchesPerReadingComposition) {
  campaign::CollectOptions opts{.threads = 1};
  const auto ds =
      campaign::collect_channel(env_, *sensor_, kChannel, route_, opts);
  const auto channel_stream = static_cast<std::uint64_t>(kChannel);
  for (std::size_t i = 0; i < route_.size(); i += 7) {
    const double truth = env_.true_rss_dbm(kChannel, route_[i]);
    const sensors::SensorReading ref = sensor_->sense_channel(
        truth, runtime::split_seed(channel_stream, i));
    const core::SpectralFeatures f = core::extract_spectral_features(ref.iq);
    EXPECT_EQ(ds.readings[i].raw, ref.raw) << "i=" << i;
    EXPECT_EQ(ds.readings[i].cft_db, f.cft_db) << "i=" << i;
    EXPECT_EQ(ds.readings[i].aft_db, f.aft_db) << "i=" << i;
  }
}

TEST_F(SpectralPathTest, ModelBytesUnchangedByThreadCount) {
  core::ModelConstructorConfig cfg;
  cfg.classifier = "svm";
  cfg.num_features = 4;
  cfg.num_localities = 3;
  cfg.max_train_samples = 120;

  std::uint64_t fingerprints[2] = {};
  unsigned idx = 0;
  for (const unsigned threads : {1u, 4u}) {
    campaign::CollectOptions opts{.threads = threads};
    const auto ds =
        campaign::collect_channel(env_, *sensor_, kChannel, route_, opts);
    core::ModelConstructorConfig threaded = cfg;
    threaded.threads = threads;
    const core::WhiteSpaceModel model =
        core::ModelConstructor(threaded).build_with_labeling(
            ds, campaign::LabelingConfig{});
    fingerprints[idx++] = model_fingerprint(model);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

}  // namespace
}  // namespace waldo
