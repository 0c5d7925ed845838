#include <gtest/gtest.h>

#include "decode_sweep.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/core/features.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/core/protocol.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/service/frontend.hpp"
#include "waldo/service/service.hpp"

namespace waldo::core {
namespace {

TEST(ProtocolWire, ModelRequestRoundTrip) {
  const ModelRequest request{.channel = 46,
                             .location = geo::EnuPoint{1234.5, -678.9}};
  const Message decoded = decode(encode(request));
  const auto* r = std::get_if<ModelRequest>(&decoded);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->channel, 46);
  EXPECT_DOUBLE_EQ(r->location.east_m, 1234.5);
  EXPECT_DOUBLE_EQ(r->location.north_m, -678.9);
}

TEST(ProtocolWire, UploadRequestRoundTrip) {
  UploadRequest request;
  request.channel = 30;
  request.contributor = "alice";
  for (int i = 0; i < 3; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{100.0 * i, 200.0 * i};
    m.rss_dbm = -90.0 - i;
    m.cft_db = -100.0 - i;
    m.aft_db = -105.0 - i;
    request.readings.push_back(m);
  }
  const Message decoded = decode(encode(request));
  const auto* r = std::get_if<UploadRequest>(&decoded);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->contributor, "alice");
  ASSERT_EQ(r->readings.size(), 3u);
  EXPECT_DOUBLE_EQ(r->readings[2].rss_dbm, -92.0);
  EXPECT_DOUBLE_EQ(r->readings[1].position.north_m, 200.0);
}

TEST(ProtocolWire, ResponsesRoundTrip) {
  const UploadResponse up{.accepted = 5, .rejected = 2, .pending = 1};
  const Message up_decoded = decode(encode(up));
  const auto* u = std::get_if<UploadResponse>(&up_decoded);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->accepted, 5u);
  EXPECT_EQ(u->pending, 1u);

  const ErrorResponse err{.reason = "channel unavailable"};
  const Message decoded = decode(encode(err));
  const auto* e = std::get_if<ErrorResponse>(&decoded);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->reason, "channel unavailable");
}

TEST(ProtocolWire, RejectsMalformedInput) {
  EXPECT_THROW((void)decode("no header"), std::runtime_error);
  EXPECT_THROW((void)decode("HTTP/1.1 model_request 4\nabcd"),
               std::runtime_error);
  EXPECT_THROW((void)decode("WSNP/1 model_request 99\nshort"),
               std::runtime_error);
  EXPECT_THROW((void)decode("WSNP/1 bogus_type 0\n"), std::runtime_error);
  UploadRequest spaced;
  spaced.channel = 30;
  spaced.contributor = "two words";
  EXPECT_THROW((void)encode(spaced), std::invalid_argument);
}

// Regression: numeric header/body fields were parsed with std::stoi and
// unchecked stream extraction, so "46abc" decoded as 46, trailing bytes
// after a complete body were silently ignored, and a hostile upload count
// could drive a huge reserve. Every field is now parsed checked, with
// trailing garbage rejected.
TEST(ProtocolWire, RejectsNonNumericAndTrailingFields) {
  // Non-numeric channel in a model_response ("46abc" used to pass stoi).
  EXPECT_THROW((void)decode("WSNP/1 model_response 9\n46abc\nmdl"),
               std::runtime_error);
  // Non-numeric body length in the header.
  EXPECT_THROW((void)decode("WSNP/1 model_request 4x\n15 0 0\n"),
               std::runtime_error);
  // Trailing garbage after complete model_request fields.
  EXPECT_THROW((void)decode("WSNP/1 model_request 12\n15 0 0 junk\n"),
               std::runtime_error);
  // Trailing garbage after a complete upload_response.
  EXPECT_THROW((void)decode("WSNP/1 upload_response 12\n5 2 1 0 bad\n"),
               std::runtime_error);
  // Extra bytes between body and declared length are not ignored either.
  const std::string valid = encode(ModelRequest{.channel = 15});
  EXPECT_THROW((void)decode(valid + "extra"), std::runtime_error);
}

TEST(ProtocolWire, RejectsImplausibleUploadCount) {
  // Claims 999999 readings in a 3-byte body: must be rejected up front
  // (before any allocation), not trusted as a reserve size.
  EXPECT_THROW((void)decode("WSNP/1 upload_request 18\n15 eve 999999\n0 0\n"),
               std::runtime_error);
  // Count larger than the readings actually present.
  EXPECT_THROW(
      (void)decode("WSNP/1 upload_request 21\n15 eve 2\n1 2 3 4 5 6\n"),
      std::runtime_error);
}

// Upload requests carry a dedup identity and the client's location so a
// routing tier can address the right shard and recognise retries.
TEST(ProtocolWire, UploadRequestIdAndLocationRoundTrip) {
  UploadRequest request;
  request.channel = 15;
  request.contributor = "carol";
  request.request_id = 0xFEEDFACE12345678ull;
  request.location = geo::EnuPoint{-1250.25, 9876.5};
  const Message decoded = decode(encode(request));
  const auto* r = std::get_if<UploadRequest>(&decoded);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->request_id, 0xFEEDFACE12345678ull);
  EXPECT_DOUBLE_EQ(r->location.east_m, -1250.25);
  EXPECT_DOUBLE_EQ(r->location.north_m, 9876.5);
}

TEST(ProtocolWire, ErrorCodeAndChannelRoundTrip) {
  const ErrorResponse err{.reason = "channel 33 is not provisioned",
                          .code = ErrorCode::kUnknownChannel,
                          .channel = 33};
  const Message decoded = decode(encode(err));
  const auto* e = std::get_if<ErrorResponse>(&decoded);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->code, ErrorCode::kUnknownChannel);
  EXPECT_EQ(e->channel, 33);
  EXPECT_EQ(e->reason, "channel 33 is not provisioned");
}

TEST(ProtocolWire, LegacyErrorBodiesDecodeAsUnspecified) {
  // An error body must open with "<code> <channel>". The bare reason line
  // of the pre-code form has no peer left to send it and is malformed.
  EXPECT_THROW((void)decode("WSNP/1 error 20\nchannel unavailable\n"),
               std::runtime_error);
  EXPECT_THROW((void)decode("WSNP/1 error 14\n1 unavailable\n"),
               std::runtime_error);
}

TEST(ProtocolWire, RetryabilityPartitionsTheErrorCodes) {
  // A retry cannot fix a request the server understood and rejected…
  EXPECT_FALSE(is_retryable(ErrorCode::kUnspecified));
  EXPECT_FALSE(is_retryable(ErrorCode::kMalformed));
  EXPECT_FALSE(is_retryable(ErrorCode::kUnknownChannel));
  EXPECT_FALSE(is_retryable(ErrorCode::kBadRequest));
  EXPECT_FALSE(is_retryable(ErrorCode::kInternal));
  // …but placement and availability change under the client's feet.
  EXPECT_TRUE(is_retryable(ErrorCode::kNotOwner));
  EXPECT_TRUE(is_retryable(ErrorCode::kNotReady));
  EXPECT_TRUE(is_retryable(ErrorCode::kUnavailable));
}

TEST(ProtocolWire, UploadResponseTicketRoundTrips) {
  const UploadResponse up{
      .accepted = 3, .rejected = 1, .pending = 2, .ticket = 41};
  const Message decoded = decode(encode(up));
  const auto* u = std::get_if<UploadResponse>(&decoded);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->ticket, 41u);
}

class ProtocolFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new rf::Environment(rf::make_metro_environment());
    const geo::DrivePath route = campaign::standard_route(*env_, 1200, 71);
    ModelConstructorConfig mc;
    mc.classifier = "naive_bayes";
    mc.num_features = 2;
    db_ = new service::SpectrumService(mc);
    sensors::Sensor usrp(sensors::usrp_b200_spec(), 72);
    usrp.calibrate();
    // Channel 46 collapses every locality to a constant on this route;
    // channel 21 trains a classifier in one of them.
    for (const int channel : {46, 21}) {
      db_->ingest_campaign(
          campaign::collect_channel(*env_, usrp, channel, route.readings));
    }
  }
  static void TearDownTestSuite() {
    delete env_;
    delete db_;
    env_ = nullptr;
    db_ = nullptr;
  }
  static rf::Environment* env_;
  static service::SpectrumService* db_;
};

rf::Environment* ProtocolFixture::env_ = nullptr;
service::SpectrumService* ProtocolFixture::db_ = nullptr;

TEST_F(ProtocolFixture, ClientFetchesWorkingModelThroughServer) {
  service::ServiceFrontend frontend(*db_, 1);
  ProtocolClient client(
      [&frontend](const std::string& wire) { return frontend.handle(wire); });

  const WhiteSpaceModel model =
      client.fetch_model(46, geo::EnuPoint{5000.0, 5000.0});
  EXPECT_EQ(model.channel(), 46);
  // The transported model is usable.
  const auto row = feature_row(geo::EnuPoint{5000.0, 5000.0}, -86.0, -97.0,
                               -99.0, model.num_features());
  const int decision = model.predict(row);
  EXPECT_TRUE(decision == ml::kSafe || decision == ml::kNotSafe);
  EXPECT_EQ(db_->counters().model_downloads, 1u);

  // A descriptor with a trained classifier survives the trip too.
  const WhiteSpaceModel trained =
      client.fetch_model(21, geo::EnuPoint{5000.0, 5000.0});
  EXPECT_EQ(trained.channel(), 21);
  EXPECT_LT(trained.num_constant_localities(), trained.num_localities());
}

TEST_F(ProtocolFixture, UnknownChannelYieldsProtocolError) {
  service::ServiceFrontend frontend(*db_, 1);
  ProtocolClient client(
      [&frontend](const std::string& wire) { return frontend.handle(wire); });
  EXPECT_THROW((void)client.fetch_model(33, geo::EnuPoint{0.0, 0.0}),
               std::runtime_error);
}

TEST_F(ProtocolFixture, UploadsFlowThroughTheProtocol) {
  service::ServiceFrontend frontend(*db_, 1);
  ProtocolClient client(
      [&frontend](const std::string& wire) { return frontend.handle(wire); });

  const campaign::ChannelDataset stored = db_->dataset_snapshot(46);
  std::vector<campaign::Measurement> readings(stored.readings.begin(),
                                              stored.readings.begin() + 10);
  for (auto& m : readings) m.position.east_m += 30.0;
  const UploadResponse response = client.upload(46, "bob", readings);
  EXPECT_EQ(response.accepted + response.rejected + response.pending, 10u);
  EXPECT_GT(response.accepted, 0u);
}

// Regression for the serving path: a failing request must come back with
// the machine-readable code AND the channel it failed on, so routers can
// distinguish "retry elsewhere" from "give up" without parsing prose.
TEST_F(ProtocolFixture, ServerErrorsCarryCodeAndFailingChannel) {
  service::ServiceFrontend frontend(*db_, 1);

  const Message model_err =
      decode(frontend.handle(encode(ModelRequest{.channel = 33})));
  const auto* e1 = std::get_if<ErrorResponse>(&model_err);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e1->code, ErrorCode::kUnknownChannel);
  EXPECT_EQ(e1->channel, 33);
  EXPECT_FALSE(is_retryable(e1->code));

  UploadRequest upload;
  upload.channel = 34;
  upload.contributor = "mallory";
  const Message upload_err = decode(frontend.handle(encode(upload)));
  const auto* e2 = std::get_if<ErrorResponse>(&upload_err);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(e2->code, ErrorCode::kUnknownChannel);
  EXPECT_EQ(e2->channel, 34);

  const Message garbage_err = decode(frontend.handle("complete garbage"));
  const auto* e3 = std::get_if<ErrorResponse>(&garbage_err);
  ASSERT_NE(e3, nullptr);
  EXPECT_EQ(e3->code, ErrorCode::kMalformed);

  const Message legacy_err = decode(
      frontend.handle("WSNP/1 error 20\nchannel unavailable\n"));
  const auto* e5 = std::get_if<ErrorResponse>(&legacy_err);
  ASSERT_NE(e5, nullptr);
  EXPECT_EQ(e5->code, ErrorCode::kMalformed);

  const Message wrong_err =
      decode(frontend.handle(encode(UploadResponse{.accepted = 1})));
  const auto* e4 = std::get_if<ErrorResponse>(&wrong_err);
  ASSERT_NE(e4, nullptr);
  EXPECT_EQ(e4->code, ErrorCode::kBadRequest);
}

TEST_F(ProtocolFixture, ServerSurvivesGarbageAndWrongMessages) {
  service::ServiceFrontend frontend(*db_, 1);
  // Garbage in, error message out — never an exception.
  const Message reply = decode(frontend.handle("complete garbage"));
  EXPECT_NE(std::get_if<ErrorResponse>(&reply), nullptr);
  // A response message sent as a request is answered with an error too.
  const Message reply2 =
      decode(frontend.handle(encode(UploadResponse{.accepted = 1})));
  EXPECT_NE(std::get_if<ErrorResponse>(&reply2), nullptr);
}

// Every WSNP message type, cut short at any length, is rejected; with any
// single bit flipped it either decodes or is rejected with
// std::runtime_error. The model response carries a real binary descriptor.
TEST_F(ProtocolFixture, DecodeRejectsEveryTruncationAndContainsEveryBitFlip) {
  // Channel 46 labels one class everywhere on this route, which would
  // collapse every locality to a constant; label by side of the map
  // instead so that the descriptor holds a trained SVM.
  const campaign::ChannelDataset dataset = db_->dataset_snapshot(46);
  std::vector<int> labels;
  for (const campaign::Measurement& m : dataset.readings) {
    labels.push_back(m.position.east_m < 5000.0 ? ml::kSafe : ml::kNotSafe);
  }
  const std::string descriptor =
      ModelConstructor().build(dataset, labels).serialize();

  UploadRequest upload;
  upload.channel = 46;
  upload.contributor = "alice";
  upload.request_id = 0xC0FFEE;
  upload.location = geo::EnuPoint{5000.0, -250.5};
  for (int i = 0; i < 3; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{5000.0 + 12.25 * i, -250.5 - 7.0 * i};
    m.raw = -80.5 - i;
    m.rss_dbm = -86.125 - i;
    m.cft_db = -97.0 - i;
    m.aft_db = -99.5 - i;
    upload.readings.push_back(m);
  }

  const Message messages[] = {
      ModelRequest{.channel = 46, .location = geo::EnuPoint{1234.5, -678.9}},
      ModelResponse{.channel = 46, .descriptor = descriptor},
      upload,
      UploadResponse{.accepted = 5, .rejected = 2, .pending = 1, .ticket = 41},
      ErrorResponse{.reason = "tile not resident",
                    .code = ErrorCode::kNotReady,
                    .channel = 46}};
  for (const Message& message : messages) {
    const std::string wire = encode(message);
    SCOPED_TRACE(wire.substr(0, wire.find('\n')));
    waldo::testing::expect_truncations_rejected_and_flips_contained(
        wire, [](const std::string& bytes) { return decode(bytes); });
  }
}

}  // namespace
}  // namespace waldo::core
