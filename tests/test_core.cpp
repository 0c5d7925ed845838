#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "waldo/campaign/truth.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/core/detector.hpp"
#include "waldo/core/features.hpp"
#include "waldo/core/model.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/service/service.hpp"

namespace waldo::core {
namespace {

TEST(Features, RowLayoutFollowsPaperOrder) {
  const geo::EnuPoint p{100.0, 200.0};
  const auto loc = feature_row(p, -80.0, -95.0, -97.0, 1);
  ASSERT_EQ(loc.size(), 2u);
  EXPECT_DOUBLE_EQ(loc[0], 100.0);
  EXPECT_DOUBLE_EQ(loc[1], 200.0);
  const auto full = feature_row(p, -80.0, -95.0, -97.0, 4);
  ASSERT_EQ(full.size(), 5u);
  EXPECT_DOUBLE_EQ(full[2], -80.0);
  EXPECT_DOUBLE_EQ(full[3], -95.0);
  EXPECT_DOUBLE_EQ(full[4], -97.0);
  EXPECT_THROW(feature_row(p, 0, 0, 0, 0), std::invalid_argument);
  EXPECT_THROW(feature_row(p, 0, 0, 0, 5), std::invalid_argument);
}

TEST(Features, FeatureNames) {
  EXPECT_STREQ(feature_name(1), "location");
  EXPECT_STREQ(feature_name(2), "RSS");
  EXPECT_STREQ(feature_name(3), "CFT");
  EXPECT_STREQ(feature_name(4), "AFT");
  EXPECT_THROW((void)feature_name(0), std::invalid_argument);
}

TEST(Features, BuildMatrixFromDataset) {
  campaign::ChannelDataset ds;
  ds.channel = 30;
  for (int i = 0; i < 5; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{static_cast<double>(i), 0.0};
    m.rss_dbm = -80.0 - i;
    m.cft_db = -90.0 - i;
    m.aft_db = -95.0 - i;
    ds.readings.push_back(m);
  }
  const ml::Matrix x = build_features(ds, 3);
  EXPECT_EQ(x.rows(), 5u);
  EXPECT_EQ(x.cols(), 4u);
  EXPECT_DOUBLE_EQ(x(2, 2), -82.0);
  EXPECT_DOUBLE_EQ(x(2, 3), -92.0);
}

TEST(Features, BuildMatrixMatchesFeatureRowsAndColumns) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(-120.0, 120.0);
  campaign::ChannelDataset ds;
  ds.channel = 21;
  for (int i = 0; i < 37; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{1e3 * u(rng), 1e3 * u(rng)};
    m.rss_dbm = u(rng);
    m.cft_db = u(rng);
    m.aft_db = u(rng);
    ds.readings.push_back(m);
  }
  for (int f = kMinFeatures; f <= kMaxFeatures; ++f) {
    const ml::Matrix x = build_features(ds, f);
    const TrainingColumns cols = training_columns(ds, f);
    EXPECT_EQ(cols.channel, 21);
    EXPECT_EQ(cols.cft_db.size(), f >= 3 ? ds.size() : 0u);
    EXPECT_EQ(cols.aft_db.size(), f >= 4 ? ds.size() : 0u);
    ASSERT_EQ(x.rows(), ds.size());
    ASSERT_EQ(x.cols(), feature_columns(f));
    for (std::size_t i = 0; i < ds.size(); ++i) {
      const campaign::Measurement& m = ds.readings[i];
      const std::vector<double> row =
          feature_row(m.position, m.rss_dbm, m.cft_db, m.aft_db, f);
      EXPECT_TRUE(std::equal(row.begin(), row.end(), x.row(i).begin()))
          << "features=" << f << " row " << i;
    }
  }
  for (const int f : {0, 5, -1}) {
    EXPECT_THROW((void)build_features(ds, f), std::invalid_argument);
    EXPECT_THROW((void)training_columns(ds, f), std::invalid_argument);
  }
  // Columns cut for 2 features cannot feed a 3-feature model.
  EXPECT_THROW(check_training_columns(training_columns(ds, 2), 3),
               std::invalid_argument);
  ModelConstructorConfig config;
  config.num_features = 3;
  const std::vector<int> labels(ds.size(), ml::kSafe);
  EXPECT_THROW((void)ModelConstructor(config).build(training_columns(ds, 2),
                                                    labels),
               std::invalid_argument);
}

TEST(MakeClassifier, KnownKindsAndErrors) {
  EXPECT_EQ(make_classifier("svm")->kind(), "svm");
  EXPECT_EQ(make_classifier("naive_bayes")->kind(), "naive_bayes");
  EXPECT_EQ(make_classifier("decision_tree")->kind(), "decision_tree");
  EXPECT_EQ(make_classifier("knn")->kind(), "knn");
  EXPECT_THROW(make_classifier("perceptron"), std::invalid_argument);
}

/// Synthetic dataset: west half not safe (strong signal), east half safe.
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

TEST(ModelConstructor, LearnsTheSplit) {
  const auto ds = make_split_dataset(600, 1);
  const auto labels = split_labels(ds);
  ModelConstructorConfig cfg;
  cfg.num_localities = 3;
  cfg.num_features = 3;
  const ModelConstructor constructor(cfg);
  const WhiteSpaceModel model = constructor.build(ds, labels);
  EXPECT_EQ(model.channel(), 30);
  EXPECT_EQ(model.num_localities(), 3u);

  ml::ConfusionMatrix cm;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto row = feature_row(ds.readings[i].position,
                                 ds.readings[i].rss_dbm,
                                 ds.readings[i].cft_db,
                                 ds.readings[i].aft_db, 3);
    cm.add(model.predict(row), labels[i]);
  }
  EXPECT_LT(cm.error_rate(), 0.05);
}

TEST(ModelConstructor, SingleClassClusterBecomesConstant) {
  auto ds = make_split_dataset(200, 2);
  const std::vector<int> labels(ds.size(), ml::kNotSafe);
  ModelConstructorConfig cfg;
  cfg.num_localities = 2;
  const WhiteSpaceModel model = ModelConstructor(cfg).build(ds, labels);
  EXPECT_EQ(model.num_constant_localities(), model.num_localities());
  const auto row = feature_row(geo::EnuPoint{1.0, 1.0}, -80, -90, -95,
                               cfg.num_features);
  EXPECT_EQ(model.predict(row), ml::kNotSafe);
}

TEST(ModelConstructor, ValidatesInputs) {
  const ModelConstructor constructor;
  campaign::ChannelDataset empty;
  EXPECT_THROW(constructor.build(empty, std::vector<int>{}),
               std::invalid_argument);
  const auto ds = make_split_dataset(10, 3);
  EXPECT_THROW(constructor.build(ds, std::vector<int>(5, ml::kSafe)),
               std::invalid_argument);
}

TEST(WhiteSpaceModel, SerializationRoundTripPreservesPredictions) {
  const auto ds = make_split_dataset(400, 4);
  const auto labels = split_labels(ds);
  for (const char* kind : {"svm", "naive_bayes", "decision_tree"}) {
    ModelConstructorConfig cfg;
    cfg.classifier = kind;
    cfg.num_localities = 3;
    cfg.num_features = 2;
    const WhiteSpaceModel model = ModelConstructor(cfg).build(ds, labels);
    const WhiteSpaceModel back =
        WhiteSpaceModel::deserialize(model.serialize());
    EXPECT_EQ(back.channel(), model.channel());
    EXPECT_EQ(back.num_features(), model.num_features());
    for (std::size_t i = 0; i < ds.size(); i += 7) {
      const auto row = feature_row(ds.readings[i].position,
                                   ds.readings[i].rss_dbm,
                                   ds.readings[i].cft_db,
                                   ds.readings[i].aft_db, 2);
      EXPECT_EQ(back.predict(row), model.predict(row)) << kind;
    }
  }
}

TEST(WhiteSpaceModel, NaiveBayesDescriptorMuchSmallerThanSvm) {
  const auto ds = make_split_dataset(800, 5);
  const auto labels = split_labels(ds);
  ModelConstructorConfig nb_cfg;
  nb_cfg.classifier = "naive_bayes";
  ModelConstructorConfig svm_cfg;
  svm_cfg.classifier = "svm";
  const auto nb = ModelConstructor(nb_cfg).build(ds, labels);
  const auto svm = ModelConstructor(svm_cfg).build(ds, labels);
  EXPECT_LT(nb.descriptor_size_bytes() * 3, svm.descriptor_size_bytes());
}

TEST(WhiteSpaceModel, PredictValidatesRowWidth) {
  const auto ds = make_split_dataset(100, 6);
  const auto labels = split_labels(ds);
  ModelConstructorConfig cfg;
  cfg.num_features = 2;
  const WhiteSpaceModel model = ModelConstructor(cfg).build(ds, labels);
  EXPECT_THROW((void)model.predict(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(WhiteSpaceModel, LogisticRegressionLocalityRoundTrip) {
  const auto ds = make_split_dataset(400, 7);
  const auto labels = split_labels(ds);
  ModelConstructorConfig cfg;
  cfg.classifier = "logistic_regression";
  cfg.num_localities = 3;
  cfg.num_features = 3;
  const WhiteSpaceModel model = ModelConstructor(cfg).build(ds, labels);
  const WhiteSpaceModel back =
      WhiteSpaceModel::deserialize(model.serialize());
  ml::ConfusionMatrix cm;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto row = feature_row(ds.readings[i].position,
                                 ds.readings[i].rss_dbm,
                                 ds.readings[i].cft_db,
                                 ds.readings[i].aft_db, 3);
    EXPECT_EQ(back.predict(row), model.predict(row));
    cm.add(model.predict(row), labels[i]);
  }
  EXPECT_LT(cm.error_rate(), 0.05);
  // The logistic descriptor is the smallest family: per-locality weights.
  EXPECT_LT(model.descriptor_size_bytes(), 2048u);
}

TEST(WhiteSpaceModel, ConstantLabelDetection) {
  const auto ds = make_split_dataset(150, 8);
  ModelConstructorConfig cfg;
  cfg.num_localities = 3;
  // All not-safe: the model collapses to an area-wide constant.
  const WhiteSpaceModel all_not =
      ModelConstructor(cfg).build(ds, std::vector<int>(ds.size(),
                                                       ml::kNotSafe));
  ASSERT_TRUE(all_not.constant_label().has_value());
  EXPECT_EQ(*all_not.constant_label(), ml::kNotSafe);
  // Mixed labels: no constant shortcut.
  const WhiteSpaceModel mixed =
      ModelConstructor(cfg).build(ds, split_labels(ds));
  EXPECT_FALSE(mixed.constant_label().has_value());
}

TEST(ConvergenceFilter, ConvergesOnStableSignal) {
  ConvergenceFilter filter;
  std::mt19937_64 rng(7);
  std::normal_distribution<double> noise(-85.0, 0.1);
  std::size_t count = 0;
  while (!filter.ingest(noise(rng))) ++count;
  EXPECT_TRUE(filter.converged());
  EXPECT_GE(filter.samples_seen(), filter.config().min_samples);
  EXPECT_NEAR(filter.estimate_dbm(), -85.0, 0.2);
  EXPECT_LT(filter.ci_span_db(), filter.config().alpha_db);
}

TEST(ConvergenceFilter, NoisierSignalNeedsMoreSamples) {
  const auto samples_to_converge = [](double sigma, std::uint64_t seed) {
    DetectorConfig cfg;
    cfg.max_samples = 10'000;
    ConvergenceFilter filter(cfg);
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> noise(-85.0, sigma);
    while (!filter.ingest(noise(rng)) && !filter.exhausted()) {
    }
    return filter.samples_seen();
  };
  double quiet = 0.0, noisy = 0.0;
  for (std::uint64_t s = 0; s < 10; ++s) {
    quiet += static_cast<double>(samples_to_converge(0.2, s));
    noisy += static_cast<double>(samples_to_converge(1.5, 100 + s));
  }
  EXPECT_LT(quiet, noisy);
}

TEST(ConvergenceFilter, LargerAlphaConvergesFaster) {
  const auto samples_needed = [](double alpha) {
    DetectorConfig cfg;
    cfg.alpha_db = alpha;
    cfg.max_samples = 10'000;
    ConvergenceFilter filter(cfg);
    std::mt19937_64 rng(9);
    std::normal_distribution<double> noise(-85.0, 1.0);
    while (!filter.ingest(noise(rng))) {
    }
    return filter.samples_seen();
  };
  EXPECT_LE(samples_needed(5.0), samples_needed(0.5));
}

TEST(ConvergenceFilter, OutlierTrimRejectsSpikes) {
  DetectorConfig cfg;
  cfg.max_samples = 1000;
  ConvergenceFilter filter(cfg);
  std::mt19937_64 rng(10);
  std::normal_distribution<double> noise(-90.0, 0.2);
  for (int i = 0; i < 50; ++i) {
    // Every 10th reading is an interference spike.
    filter.ingest(i % 10 == 9 ? -40.0 : noise(rng));
  }
  EXPECT_NEAR(filter.estimate_dbm(), -90.0, 1.5);
}

TEST(ConvergenceFilter, ExhaustionOnDriftingSignal) {
  DetectorConfig cfg;
  cfg.alpha_db = 0.1;
  cfg.max_samples = 60;
  ConvergenceFilter filter(cfg);
  // Mobile device: RSS ramps, CI never settles under the tight alpha.
  for (int i = 0; i < 100 && !filter.converged(); ++i) {
    filter.ingest(-95.0 + 0.4 * i);
    if (filter.exhausted()) break;
  }
  EXPECT_TRUE(filter.exhausted());
  EXPECT_FALSE(filter.converged());
}

TEST(ConvergenceFilter, Validation) {
  DetectorConfig bad;
  bad.alpha_db = 0.0;
  EXPECT_THROW(ConvergenceFilter{bad}, std::invalid_argument);
  EXPECT_THROW((void)normal_critical_value(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_critical_value(1.0), std::invalid_argument);
}

TEST(NormalCriticalValue, KnownQuantiles) {
  EXPECT_NEAR(normal_critical_value(0.90), 1.6449, 1e-3);
  EXPECT_NEAR(normal_critical_value(0.95), 1.9600, 1e-3);
  EXPECT_NEAR(normal_critical_value(0.99), 2.5758, 1e-3);
}

class DatabaseFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new rf::Environment(rf::make_metro_environment());
    route_ = new geo::DrivePath(campaign::standard_route(*env_, 700, 13));
    sensors::Sensor usrp(sensors::usrp_b200_spec(), 14);
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

  static ModelConstructorConfig fast_config() {
    ModelConstructorConfig cfg;
    cfg.classifier = "naive_bayes";
    cfg.num_localities = 3;
    cfg.num_features = 2;
    return cfg;
  }

  static rf::Environment* env_;
  static geo::DrivePath* route_;
  static campaign::ChannelDataset* data_;
};

rf::Environment* DatabaseFixture::env_ = nullptr;
geo::DrivePath* DatabaseFixture::route_ = nullptr;
campaign::ChannelDataset* DatabaseFixture::data_ = nullptr;

TEST_F(DatabaseFixture, IngestBuildServeFlow) {
  service::SpectrumService db(fast_config());
  EXPECT_FALSE(db.has_channel(46));
  db.ingest_campaign(*data_);
  EXPECT_TRUE(db.has_channel(46));
  EXPECT_EQ(db.channels(), std::vector<int>{46});

  const std::shared_ptr<const WhiteSpaceModel> model = db.model(46);
  EXPECT_EQ(model->channel(), 46);
  EXPECT_EQ(db.counters().models_built, 1u);
  // Cached: a second request doesn't rebuild.
  (void)db.model(46);
  EXPECT_EQ(db.counters().models_built, 1u);

  const std::string descriptor = db.download_model(46);
  EXPECT_FALSE(descriptor.empty());
  EXPECT_EQ(db.counters().model_downloads, 1u);
  EXPECT_EQ(db.counters().bytes_served, descriptor.size());
  const WhiteSpaceModel client = WhiteSpaceModel::deserialize(descriptor);
  EXPECT_EQ(client.channel(), 46);
}

TEST_F(DatabaseFixture, UnknownChannelThrows) {
  service::SpectrumService db(fast_config());
  EXPECT_THROW((void)db.dataset_snapshot(30), std::out_of_range);
  EXPECT_THROW((void)db.model(30), std::out_of_range);
  EXPECT_THROW(db.upload_measurements(30, {}, "anonymous"), std::out_of_range);
  EXPECT_THROW(db.ingest_campaign(campaign::ChannelDataset{}),
               std::invalid_argument);
}

TEST_F(DatabaseFixture, UploadsAcceptConsistentRejectImplausible) {
  service::SpectrumService db(fast_config());
  db.ingest_campaign(*data_);
  const std::size_t before = db.dataset_snapshot(46).size();

  // Consistent upload: near an existing reading with a similar value.
  campaign::Measurement good;
  good.position = data_->readings[10].position;
  good.position.east_m += 30.0;
  good.rss_dbm = data_->readings[10].rss_dbm + 2.0;

  // Malicious upload: claims a hot incumbent where the neighbourhood reads
  // near the floor.
  campaign::Measurement bad = good;
  bad.rss_dbm = data_->readings[10].rss_dbm + 60.0;

  const std::vector<campaign::Measurement> uploads{good, bad};
  const auto result = db.upload_measurements(46, uploads, "anonymous");
  EXPECT_EQ(result.accepted, 1u);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(db.dataset_snapshot(46).size(), before + 1);
  EXPECT_EQ(db.counters().uploads_accepted, 1u);
  EXPECT_EQ(db.counters().uploads_rejected, 1u);
}

TEST_F(DatabaseFixture, UnexploredUploadsHeldUntilCorroborated) {
  service::SpectrumService db(fast_config());
  db.ingest_campaign(*data_);
  campaign::Measurement frontier;
  frontier.position = geo::EnuPoint{-500'000.0, -500'000.0};
  frontier.rss_dbm = -95.0;  // nobody nearby can vouch for this
  // First report: held pending, invisible to models.
  const auto first = db.upload_measurements(
      46, std::vector<campaign::Measurement>{frontier}, "alice");
  EXPECT_EQ(first.accepted, 0u);
  EXPECT_EQ(first.pending, 1u);
  EXPECT_EQ(db.pending_count(46), 1u);
  const std::size_t before = db.dataset_snapshot(46).size();
  // Same contributor repeating herself does not corroborate.
  const auto again = db.upload_measurements(
      46, std::vector<campaign::Measurement>{frontier}, "alice");
  EXPECT_EQ(again.accepted, 0u);
  EXPECT_EQ(db.dataset_snapshot(46).size(), before);
  // An agreeing report from a different contributor promotes the cluster.
  campaign::Measurement corroboration = frontier;
  corroboration.position.east_m += 100.0;
  corroboration.rss_dbm = -94.0;
  const auto second = db.upload_measurements(
      46, std::vector<campaign::Measurement>{corroboration}, "bob");
  EXPECT_GE(second.accepted, 2u);  // bob's reading + promoted pendings
  EXPECT_GT(db.dataset_snapshot(46).size(), before);
}

TEST_F(DatabaseFixture, DisagreeingFrontierReportsStayPending) {
  service::SpectrumService db(fast_config());
  db.ingest_campaign(*data_);
  campaign::Measurement claim;
  claim.position = geo::EnuPoint{-500'000.0, -500'000.0};
  claim.rss_dbm = -60.0;  // forged occupancy
  (void)db.upload_measurements(
      46, std::vector<campaign::Measurement>{claim}, "mallory");
  campaign::Measurement counter = claim;
  counter.position.east_m += 50.0;
  counter.rss_dbm = -100.0;  // honest: it is silent here
  const auto result = db.upload_measurements(
      46, std::vector<campaign::Measurement>{counter}, "bob");
  // The honest report does not corroborate the forgery (deviation too
  // large), so both remain pending and neither reaches the model.
  EXPECT_EQ(result.accepted, 0u);
  EXPECT_EQ(db.pending_count(46), 2u);
}

TEST_F(DatabaseFixture, RebuildThresholdBatchesRetraining) {
  ModelConstructorConfig mc = fast_config();
  UploadPolicy policy;
  policy.rebuild_threshold = 5;
  service::SpectrumService db(mc, campaign::LabelingConfig{}, policy);
  db.ingest_campaign(*data_);
  (void)db.model(46);
  EXPECT_EQ(db.counters().models_built, 1u);

  // Three accepted readings: under the threshold, the model stays cached.
  for (int i = 0; i < 3; ++i) {
    campaign::Measurement m = data_->readings[static_cast<std::size_t>(i)];
    m.position.east_m += 20.0 + i;
    (void)db.upload_measurements(46, std::vector<campaign::Measurement>{m},
                                 "anonymous");
  }
  EXPECT_EQ(db.staleness(46), 3u);
  (void)db.model(46);
  EXPECT_EQ(db.counters().models_built, 1u);

  // Two more cross the threshold: next model request retrains.
  for (int i = 3; i < 5; ++i) {
    campaign::Measurement m = data_->readings[static_cast<std::size_t>(i)];
    m.position.east_m += 20.0 + i;
    (void)db.upload_measurements(46, std::vector<campaign::Measurement>{m},
                                 "anonymous");
  }
  EXPECT_EQ(db.staleness(46), 0u);
  (void)db.model(46);
  EXPECT_EQ(db.counters().models_built, 2u);
}

// Regression: the staleness counter was never reset when a build or a
// campaign ingest folded the accepted readings in, so it over-reported
// forever and every later upload crossed the threshold immediately —
// silently degrading rebuild batching to rebuild-per-upload.
TEST_F(DatabaseFixture, StalenessResetsOnceReadingsAreFoldedIn) {
  ModelConstructorConfig mc = fast_config();
  UploadPolicy policy;
  policy.rebuild_threshold = 5;
  service::SpectrumService db(mc, campaign::LabelingConfig{}, policy);
  db.ingest_campaign(*data_);

  const auto upload_one = [&](int i) {
    campaign::Measurement m = data_->readings[static_cast<std::size_t>(i)];
    m.position.east_m += 20.0 + i;
    (void)db.upload_measurements(46, std::vector<campaign::Measurement>{m},
                                 "anonymous");
  };

  for (int i = 0; i < 3; ++i) upload_one(i);
  EXPECT_EQ(db.staleness(46), 3u);

  // A fresh build folds those three in: nothing is stale any more.
  (void)db.model(46);
  EXPECT_EQ(db.staleness(46), 0u);
  EXPECT_EQ(db.counters().models_built, 1u);

  // Two more accepted readings start the count from zero, not from three —
  // the cached model survives (with the old accounting this would read 5
  // and spuriously invalidate).
  for (int i = 3; i < 5; ++i) upload_one(i);
  EXPECT_EQ(db.staleness(46), 2u);
  (void)db.model(46);
  EXPECT_EQ(db.counters().models_built, 1u);

  // A campaign ingest also folds everything into the next build.
  db.ingest_campaign(*data_);
  EXPECT_EQ(db.staleness(46), 0u);
}

TEST_F(DatabaseFixture, UploadInvalidatesModelCache) {
  service::SpectrumService db(fast_config());
  db.ingest_campaign(*data_);
  (void)db.model(46);
  EXPECT_EQ(db.counters().models_built, 1u);
  campaign::Measurement m = data_->readings[0];
  m.position.east_m += 25.0;
  (void)db.upload_measurements(46, std::vector<campaign::Measurement>{m},
                                 "anonymous");
  (void)db.model(46);
  EXPECT_EQ(db.counters().models_built, 2u);
}

}  // namespace
}  // namespace waldo::core
