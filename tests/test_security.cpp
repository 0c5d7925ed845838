#include <gtest/gtest.h>

#include <memory>

#include "waldo/campaign/labeling.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/core/protocol.hpp"
#include "waldo/core/security.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/service/frontend.hpp"
#include "waldo/service/secure_updater.hpp"
#include "waldo/service/service.hpp"

namespace waldo::core {
namespace {

class SecurityFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new rf::Environment(rf::make_metro_environment());
    route_ = new geo::DrivePath(campaign::standard_route(*env_, 2500, 61));
    sensors::Sensor usrp(sensors::usrp_b200_spec(), 62);
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

  static std::unique_ptr<service::SpectrumService> make_db() {
    ModelConstructorConfig mc;
    mc.classifier = "naive_bayes";
    mc.num_features = 2;
    auto db = std::make_unique<service::SpectrumService>(mc);
    db->ingest_campaign(*data_);
    return db;
  }

  /// Algorithm 1 labels of the channel's stored dataset.
  static std::vector<int> labels(const service::SpectrumService& db) {
    const campaign::ChannelDataset ds = db.dataset_snapshot(46);
    return campaign::label_readings(ds.positions(), ds.rss_values());
  }

  /// A forged-occupancy batch inside the campaign's covered area.
  static std::vector<campaign::Measurement> covered_area_forgery(
      std::uint64_t seed) {
    AttackConfig attack;
    attack.type = AttackType::kFalseOccupancy;
    // Centre of the drive area: densely covered by trusted readings.
    attack.target_area = geo::BoundingBox{12'000.0, 12'000.0, 15'000.0,
                                          15'000.0};
    attack.forged_rss_dbm = -60.0;
    attack.num_reports = 40;
    attack.seed = seed;
    return forge_uploads(attack);
  }

  static rf::Environment* env_;
  static geo::DrivePath* route_;
  static campaign::ChannelDataset* data_;
};

rf::Environment* SecurityFixture::env_ = nullptr;
geo::DrivePath* SecurityFixture::route_ = nullptr;
campaign::ChannelDataset* SecurityFixture::data_ = nullptr;

TEST(ForgeUploads, GeneratesPlausibleBatchInTargetArea) {
  AttackConfig cfg;
  cfg.target_area = geo::BoundingBox{0.0, 0.0, 1000.0, 1000.0};
  cfg.forged_rss_dbm = -75.0;
  cfg.num_reports = 30;
  const auto batch = forge_uploads(cfg);
  ASSERT_EQ(batch.size(), 30u);
  for (const campaign::Measurement& m : batch) {
    EXPECT_TRUE(cfg.target_area.contains(m.position));
    EXPECT_NEAR(m.rss_dbm, -75.0, 3.0);
    // Forged spectral features are internally consistent with the claim.
    EXPECT_LT(m.cft_db, m.rss_dbm);
  }
  cfg.target_area = geo::BoundingBox{0.0, 0.0, 0.0, 1000.0};
  EXPECT_THROW(forge_uploads(cfg), std::invalid_argument);
}

TEST_F(SecurityFixture, CorrelationCheckRejectsCoveredAreaForgery) {
  const auto db = make_db();
  const auto result =
      db->upload_measurements(46, covered_area_forgery(1), "mallory");
  // The campaign saw near-floor power there; a -60 dBm claim is implausible
  // wherever trusted readings can vouch, and unvouched spots are only held
  // pending — nothing reaches the model either way.
  EXPECT_EQ(result.accepted, 0u);
  EXPECT_GT(result.rejected, 10u);
  EXPECT_EQ(result.rejected + result.pending, 40u);
}

TEST_F(SecurityFixture, ReputationQuarantinesRepeatOffender) {
  const auto db = make_db();
  service::SecureUpdater updater;
  bool quarantined = false;
  for (std::uint64_t wave = 0; wave < 5 && !quarantined; ++wave) {
    (void)updater.submit(*db, 46, "mallory", covered_area_forgery(wave));
    quarantined = updater.is_quarantined("mallory");
  }
  EXPECT_TRUE(quarantined);
  // Once quarantined, batches are dropped without touching the database.
  const std::size_t before = db->counters().uploads_rejected;
  const auto result =
      updater.submit(*db, 46, "mallory", covered_area_forgery(99));
  EXPECT_TRUE(result.quarantined);
  EXPECT_EQ(db->counters().uploads_rejected, before);
}

// Regression: quarantine used to drop only *future* batches. Readings the
// attacker had already parked in the pending pool survived, so an
// accomplice identity could corroborate them post-quarantine and promote
// the stash into the trusted dataset. Quarantine must purge the pool.
TEST_F(SecurityFixture, QuarantinePurgesPendingStash) {
  const auto db = make_db();
  service::SecureUpdater updater;

  // Mallory parks a stash far outside campaign coverage: nothing can vouch
  // there, so every reading is held pending. The area is small enough
  // (300 m square) that any later report inside it corroborates.
  AttackConfig stash;
  stash.type = AttackType::kFalseOccupancy;
  stash.target_area =
      geo::BoundingBox{100'000.0, 100'000.0, 100'300.0, 100'300.0};
  stash.forged_rss_dbm = -60.0;
  stash.num_reports = 20;
  stash.seed = 7;
  const auto park = updater.submit(*db, 46, "mallory", forge_uploads(stash));
  EXPECT_EQ(park.accepted, 0u);
  EXPECT_EQ(park.pending, 20u);
  EXPECT_EQ(db->pending_count(46), 20u);
  const std::size_t trusted_before = db->dataset_snapshot(46).size();

  // Covered-area forgeries trip the quarantine; the tripping batch must
  // also purge everything mallory left pending.
  std::size_t purged = 0;
  for (std::uint64_t wave = 0; wave < 5 && purged == 0; ++wave) {
    purged = updater.submit(*db, 46, "mallory", covered_area_forgery(wave))
                 .purged_pending;
  }
  EXPECT_TRUE(updater.is_quarantined("mallory"));
  EXPECT_GE(purged, 20u);
  EXPECT_EQ(db->pending_count(46), 0u);

  // The accomplice arrives after the quarantine: with mallory's stash gone
  // there is nothing to corroborate, so the sybil's echo of the same area
  // is merely parked — the trusted dataset is untouched.
  stash.seed = 8;
  const auto echo = updater.submit(*db, 46, "sybil2", forge_uploads(stash));
  EXPECT_EQ(echo.accepted, 0u);
  EXPECT_EQ(echo.pending, 20u);
  EXPECT_EQ(db->dataset_snapshot(46).size(), trusted_before);
}

TEST_F(SecurityFixture, HonestContributorGainsReputation) {
  const auto db = make_db();
  service::SecureUpdater updater;
  // Honest uploads: real readings displaced slightly off the drive path.
  std::vector<campaign::Measurement> honest(data_->readings.begin(),
                                            data_->readings.begin() + 80);
  for (auto& m : honest) m.position.north_m += 40.0;
  const auto result = updater.submit(*db, 46, "alice", honest);
  EXPECT_GT(result.accepted, 70u);
  EXPECT_FALSE(updater.is_quarantined("alice"));
  EXPECT_GT(updater.record("alice").reputation,
            service::kInitialReputation);
}

TEST_F(SecurityFixture, FalseVacancyCannotOpenPoisonedArea) {
  // Structural property: Algorithm 1 labels a location not-safe if ANY
  // nearby reading is hot; adding forged low readings can never flip a
  // not-safe label back to safe.
  const auto db = make_db();
  const std::vector<int> before = labels(*db);

  AttackConfig attack;
  attack.type = AttackType::kFalseVacancy;
  attack.target_area = geo::BoundingBox{12'000.0, 20'000.0, 16'000.0,
                                        24'000.0};  // occupied north
  attack.forged_rss_dbm = -86.5;  // matches the RTL floor: passes checks
  attack.num_reports = 60;
  (void)db->upload_measurements(46, forge_uploads(attack), "mallory");

  const std::vector<int> after = labels(*db);
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] == ml::kNotSafe) EXPECT_EQ(after[i], ml::kNotSafe);
  }
}

TEST_F(SecurityFixture, ReputationComposesWithTheWireProtocol) {
  // Full online-phase stack: forged uploads arrive over WSNP, the
  // database's checks reject them, and the SecureUpdater can meanwhile
  // quarantine the identity for direct submissions.
  const auto db = make_db();
  service::ServiceFrontend frontend(*db, 1);
  UploadRequest request;
  request.channel = 46;
  request.contributor = "mallory";
  request.readings = covered_area_forgery(3);
  const auto wire_result =
      std::get<UploadResponse>(decode(frontend.handle(encode(request))));
  EXPECT_EQ(wire_result.accepted, 0u);
  EXPECT_GT(wire_result.rejected, 0u);
  // Nothing forged reached the model path.
  EXPECT_EQ(db->counters().uploads_accepted, 0u);
}

TEST_F(SecurityFixture, RecordLookupValidates) {
  service::SecureUpdater updater;
  EXPECT_THROW((void)updater.record("nobody"), std::out_of_range);
  EXPECT_FALSE(updater.is_quarantined("nobody"));
  EXPECT_EQ(updater.num_contributors(), 0u);
}

}  // namespace
}  // namespace waldo::core
