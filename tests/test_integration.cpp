// End-to-end integration: war-drive -> central database -> model download
// -> on-device detection, validated against the analytic regulatory truth,
// plus the full baseline comparison on one channel.
#include <gtest/gtest.h>

#include "waldo/baselines/geo_database.hpp"
#include "waldo/baselines/vscope.hpp"
#include "waldo/campaign/truth.hpp"
#include "waldo/core/features.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/device/phone.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/service/service.hpp"

namespace waldo {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new rf::Environment(rf::make_metro_environment());
    route_ = new geo::DrivePath(campaign::standard_route(*env_, 1500, 51));
    sensors::Sensor usrp(sensors::usrp_b200_spec(), 52);
    usrp.calibrate();
    data_ = new campaign::ChannelDataset(
        campaign::collect_channel(*env_, usrp, 46, route_->readings));
  }
  static void TearDownTestSuite() {
    delete env_;
    delete route_;
    delete data_;
    env_ = nullptr;
    route_ = nullptr;
    data_ = nullptr;
  }
  static rf::Environment* env_;
  static geo::DrivePath* route_;
  static campaign::ChannelDataset* data_;
};

rf::Environment* EndToEnd::env_ = nullptr;
geo::DrivePath* EndToEnd::route_ = nullptr;
campaign::ChannelDataset* EndToEnd::data_ = nullptr;

TEST_F(EndToEnd, PhoneDecisionsApproximateRegulatoryTruth) {
  core::ModelConstructorConfig cfg;
  cfg.classifier = "svm";
  cfg.num_localities = 3;
  cfg.num_features = 3;
  cfg.max_train_samples = 800;
  service::SpectrumService db(cfg);
  db.ingest_campaign(*data_);

  device::PhoneConfig phone_cfg;
  sensors::Sensor phone_sensor(device::phone_rtl_sdr_spec(), 53);
  phone_sensor.calibrate();
  device::PhoneRuntime phone(phone_cfg, std::move(phone_sensor));
  phone.ensure_models(db, std::vector<int>{46});

  const campaign::GroundTruthLabeler truth(*env_, 46);
  ml::ConfusionMatrix cm;
  std::mt19937_64 rng(54);
  std::uniform_real_distribution<double> coord(1000.0, 25'000.0);
  for (int i = 0; i < 60; ++i) {
    const geo::EnuPoint p{coord(rng), coord(rng)};
    const device::ChannelScan scan = phone.scan_channel(*env_, 46, p);
    cm.add(scan.decision, truth.label(p));
  }
  // Detection quality end-to-end: mostly correct, biased toward safety.
  EXPECT_LT(cm.error_rate(), 0.25);
  EXPECT_LT(cm.fp_rate(), 0.15);
}

TEST_F(EndToEnd, WaldoBeatsVScopeAndDatabaseOnEfficiency) {
  // The paper's headline comparison, one channel: error rate of Waldo
  // (location + signal features) vs V-Scope vs the conventional database,
  // all scored against Algorithm 1 labels on held-out readings.
  const auto labels =
      campaign::label_readings(data_->positions(), data_->rss_values());

  // Hold out every 5th reading for testing.
  campaign::ChannelDataset train;
  train.channel = data_->channel;
  train.sensor_name = data_->sensor_name;
  std::vector<int> train_labels;
  std::vector<std::size_t> test_idx;
  for (std::size_t i = 0; i < data_->size(); ++i) {
    if (i % 5 == 0) {
      test_idx.push_back(i);
    } else {
      train.readings.push_back(data_->readings[i]);
      train_labels.push_back(labels[i]);
    }
  }

  core::ModelConstructorConfig cfg;
  cfg.classifier = "svm";
  cfg.num_features = 3;
  cfg.num_localities = 1;
  cfg.max_train_samples = 800;
  const core::WhiteSpaceModel waldo =
      core::ModelConstructor(cfg).build(train, train_labels);

  baselines::VScope vscope;
  std::vector<geo::EnuPoint> txs;
  for (const rf::Transmitter* tx : env_->transmitters_on(46)) {
    txs.push_back(tx->location);
  }
  vscope.fit(train, txs);
  const baselines::GeoDatabase geo_db(*env_, 46);

  ml::ConfusionMatrix cm_waldo, cm_vscope, cm_db;
  for (const std::size_t i : test_idx) {
    const campaign::Measurement& m = data_->readings[i];
    const auto row =
        core::feature_row(m.position, m.rss_dbm, m.cft_db, m.aft_db, 3);
    cm_waldo.add(waldo.predict(row), labels[i]);
    cm_vscope.add(vscope.classify(m.position), labels[i]);
    cm_db.add(geo_db.classify(m.position), labels[i]);
  }

  EXPECT_LT(cm_waldo.error_rate(), cm_vscope.error_rate());
  EXPECT_LT(cm_waldo.error_rate(), cm_db.error_rate());
  EXPECT_LT(cm_waldo.fn_rate(), cm_db.fn_rate());
}

TEST_F(EndToEnd, CrowdsourcedUpdatesImproveCoverageStatistics) {
  core::ModelConstructorConfig cfg;
  cfg.classifier = "naive_bayes";
  service::SpectrumService db(cfg);

  // Bootstrap with the first half of the campaign only.
  campaign::ChannelDataset half;
  half.channel = data_->channel;
  half.sensor_name = data_->sensor_name;
  half.readings.assign(data_->readings.begin(),
                       data_->readings.begin() + data_->size() / 2);
  db.ingest_campaign(half);
  const std::size_t before = db.dataset_snapshot(46).size();

  // Devices upload the second half as they roam.
  const std::span<const campaign::Measurement> second(
      data_->readings.data() + data_->size() / 2,
      data_->size() - data_->size() / 2);
  const auto result = db.upload_measurements(46, second, "anonymous");
  // Uploads near the bootstrapped half are vouched and accepted; roaming
  // readings in unexplored areas wait for corroboration.
  // Promotions can only move readings from pending to accepted, so the
  // ledger still balances against the submitted batch.
  EXPECT_EQ(result.accepted + result.rejected + result.pending,
            second.size());
  // The drive pushes into unexplored blocks, so a large share is held for
  // corroboration; readings near the bootstrapped half are accepted.
  EXPECT_GT(result.accepted, 20u);
  EXPECT_GT(result.pending, 0u);
  EXPECT_EQ(db.dataset_snapshot(46).size(), before + result.accepted);
  // A model still builds fine after the merge.
  EXPECT_NO_THROW(db.model(46));
}

TEST_F(EndToEnd, ModelDescriptorCoversAreaUnlikePerQueryDatabase) {
  // Section 5's overhead point: one downloaded descriptor answers queries
  // across the whole area; a conventional database needs one round trip
  // per location. Quantified: descriptor bytes vs bytes-per-query * N.
  core::ModelConstructorConfig cfg;
  cfg.classifier = "naive_bayes";
  cfg.num_features = 2;
  service::SpectrumService db(cfg);
  db.ingest_campaign(*data_);
  const std::string descriptor = db.download_model(46);
  constexpr std::size_t kTypicalQueryBytes = 2048;  // "a few kBs" per query
  constexpr std::size_t kQueriesPerDay = 24 * 60;   // one per minute
  EXPECT_LT(descriptor.size(), kTypicalQueryBytes * kQueriesPerDay / 10);
}

}  // namespace
}  // namespace waldo
