// The serving-layer contract (docs/CONCURRENCY.md, "The serving layer"):
// any number of concurrent downloads, uploads and malformed frames against
// one SpectrumService leaves exactly the state that bare core::ChannelStates
// reach when the same upload batches are replayed serially in the
// per-channel apply-ticket order, with models built by a serial
// ModelConstructor — datasets, models and per-batch ledgers all
// byte-identical. This suite (run under TSan in CI) enforces that, plus the
// frontend's error isolation and stats accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "waldo/campaign/dataset_io.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/codec/codec.hpp"
#include "waldo/core/channel_state.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/core/protocol.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/runtime/seed.hpp"
#include "waldo/sensors/sensor.hpp"
#include "waldo/service/frontend.hpp"
#include "waldo/service/service.hpp"

namespace waldo::service {
namespace {

constexpr int kChannelA = 15;
constexpr int kChannelB = 46;

class ServiceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new rf::Environment(rf::make_metro_environment());
    route_ = new geo::DrivePath(campaign::standard_route(*env_, 700, 29));
    sensors::Sensor usrp(sensors::usrp_b200_spec(), 30);
    usrp.calibrate();
    data_a_ = new campaign::ChannelDataset(
        campaign::collect_channel(*env_, usrp, kChannelA, route_->readings));
    data_b_ = new campaign::ChannelDataset(
        campaign::collect_channel(*env_, usrp, kChannelB, route_->readings));
  }
  static void TearDownTestSuite() {
    delete env_;
    delete route_;
    delete data_a_;
    delete data_b_;
    env_ = nullptr;
    route_ = nullptr;
    data_a_ = nullptr;
    data_b_ = nullptr;
  }

  static core::ModelConstructorConfig fast_config() {
    core::ModelConstructorConfig cfg;
    cfg.classifier = "naive_bayes";
    cfg.num_localities = 3;
    cfg.num_features = 2;
    return cfg;
  }

  static void bootstrap(SpectrumService& service) {
    service.ingest_campaign(*data_a_);
    service.ingest_campaign(*data_b_);
  }

  /// A small honest-looking upload batch derived from stored readings.
  static std::vector<campaign::Measurement> make_batch(
      const campaign::ChannelDataset& data, std::mt19937_64& rng) {
    std::uniform_int_distribution<std::size_t> pick(0, data.size() - 1);
    std::uniform_real_distribution<double> jitter(-40.0, 40.0);
    std::uniform_real_distribution<double> noise(-2.0, 2.0);
    std::vector<campaign::Measurement> batch;
    for (int i = 0; i < 3; ++i) {
      campaign::Measurement m = data.readings[pick(rng)];
      m.position.east_m += jitter(rng);
      m.position.north_m += jitter(rng);
      m.rss_dbm += noise(rng);
      m.iq.clear();
      batch.push_back(m);
    }
    return batch;
  }

  static std::string csv_bytes(const campaign::ChannelDataset& ds) {
    std::ostringstream os;
    campaign::write_csv(os, ds);
    return os.str();
  }

  /// The independent serial reference: one bare core::ChannelState per
  /// channel, fed in order on one thread, and models built by a serial
  /// ModelConstructor. It shares none of the service's locks or caches.
  struct SerialReference {
    std::map<int, core::ChannelState> channels;

    SerialReference() {
      channels[kChannelA].ingest(*data_a_);
      channels[kChannelB].ingest(*data_b_);
    }

    core::UploadResult upload(
        int channel, std::span<const campaign::Measurement> readings,
        const std::string& contributor) {
      return channels.at(channel)
          .upload(core::UploadPolicy{}, readings, contributor)
          .ledger;
    }

    /// Serialized model of the channel's current dataset; like a store
    /// publishing it, the build folds every accepted reading in.
    std::string model(int channel) {
      core::ModelConstructorConfig config = fast_config();
      config.threads = 1;
      core::ChannelState& state = channels.at(channel);
      const std::string bytes =
          core::ModelConstructor(config)
              .build_with_labeling(state.dataset(), campaign::LabelingConfig{})
              .serialize();
      state.model_built();
      return bytes;
    }
  };

  static rf::Environment* env_;
  static geo::DrivePath* route_;
  static campaign::ChannelDataset* data_a_;
  static campaign::ChannelDataset* data_b_;
};

rf::Environment* ServiceFixture::env_ = nullptr;
geo::DrivePath* ServiceFixture::route_ = nullptr;
campaign::ChannelDataset* ServiceFixture::data_a_ = nullptr;
campaign::ChannelDataset* ServiceFixture::data_b_ = nullptr;

TEST_F(ServiceFixture, MatchesSerialReferenceOnSerialTraffic) {
  SpectrumService service(fast_config());
  bootstrap(service);
  SerialReference reference;

  std::mt19937_64 rng(41);
  for (int i = 0; i < 10; ++i) {
    std::mt19937_64 branch(runtime::split_seed(41, i));
    const auto batch = make_batch(*data_a_, branch);
    const core::UploadResult from_service =
        service.upload_measurements(kChannelA, batch, "alice");
    const core::UploadResult from_reference =
        reference.upload(kChannelA, batch, "alice");
    EXPECT_EQ(from_service.accepted, from_reference.accepted);
    EXPECT_EQ(from_service.rejected, from_reference.rejected);
    EXPECT_EQ(from_service.pending, from_reference.pending);
    EXPECT_EQ(from_service.ticket, from_reference.ticket);
  }
  const core::ChannelState& state = reference.channels.at(kChannelA);
  EXPECT_EQ(csv_bytes(service.dataset_snapshot(kChannelA)),
            csv_bytes(state.dataset()));
  EXPECT_EQ(service.model(kChannelA)->serialize(),
            reference.model(kChannelA));
  EXPECT_EQ(service.download_model(kChannelB), reference.model(kChannelB));
  EXPECT_EQ(service.pending_count(kChannelA), state.pending().size());
  EXPECT_EQ(service.staleness(kChannelA), state.staleness());
}

// A rebuild copies only the columns its feature count reads out of the
// shard. At every feature count, with a family that trains on every
// column (svm) and one that is cheap (naive_bayes), the service must serve
// what a serial build over the whole dataset gives.
TEST_F(ServiceFixture, RebuildsFromColumnSnapshotAtEveryFeatureCount) {
  for (const char* family : {"naive_bayes", "svm"}) {
    for (int features = 1; features <= 4; ++features) {
      core::ModelConstructorConfig config = fast_config();
      config.classifier = family;
      config.num_features = features;
      SpectrumService service(config);
      bootstrap(service);
      (void)service.download_model(kChannelA);  // a model to invalidate
      std::size_t accepted = 0;
      for (int i = 0; i < 6; ++i) {
        std::mt19937_64 branch(runtime::split_seed(57, i));
        accepted += service
                        .upload_measurements(
                            kChannelA, make_batch(*data_a_, branch), "alice")
                        .accepted;
      }
      ASSERT_GT(accepted, 0u);

      core::ModelConstructorConfig serial = config;
      serial.threads = 1;
      const std::string want =
          core::ModelConstructor(serial)
              .build_with_labeling(service.dataset_snapshot(kChannelA))
              .serialize();
      EXPECT_EQ(service.download_model(kChannelA), want)
          << family << ", " << features << " features";
    }
  }
}

TEST_F(ServiceFixture, UnknownChannelBehavesLikeDatabase) {
  SpectrumService service(fast_config());
  bootstrap(service);
  EXPECT_FALSE(service.has_channel(33));
  EXPECT_THROW((void)service.model(33), std::out_of_range);
  EXPECT_THROW((void)service.dataset_snapshot(33), std::out_of_range);
  EXPECT_THROW(service.upload_measurements(33, {}, "alice"),
               std::out_of_range);
  EXPECT_THROW(service.ingest_campaign(campaign::ChannelDataset{}),
               std::invalid_argument);
  EXPECT_EQ(service.pending_count(33), 0u);
  EXPECT_EQ(service.staleness(33), 0u);
  const std::vector<int> expected{kChannelA, kChannelB};
  EXPECT_EQ(service.channels(), expected);
}

TEST_F(ServiceFixture, ConcurrentDownloadsShareOneRebuild) {
  SpectrumService service(fast_config());
  bootstrap(service);
  constexpr unsigned kThreads = 8;
  std::vector<std::string> descriptors(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&service, &descriptors, t] {
        descriptors[t] = service.download_model(kChannelA);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // The thundering herd built the model exactly once and everyone got the
  // same bytes.
  EXPECT_EQ(service.counters().models_built, 1u);
  for (const std::string& d : descriptors) EXPECT_EQ(d, descriptors[0]);
  EXPECT_EQ(service.counters().model_downloads, kThreads);
  EXPECT_EQ(service.counters().bytes_served,
            kThreads * descriptors[0].size());
  // Descriptor-cache accounting: every download is either a hit or a miss.
  // How many threads race the first serialization is timing-dependent, but
  // at least one must miss, and each hit's bytes came from the cache.
  const ServiceCounters after = service.counters();
  EXPECT_EQ(after.descriptor_cache_hits + after.descriptor_cache_misses,
            kThreads);
  EXPECT_GE(after.descriptor_cache_misses, 1u);
  EXPECT_EQ(after.bytes_from_cache,
            after.descriptor_cache_hits * descriptors[0].size());
}

TEST_F(ServiceFixture, DescriptorCacheHitsUntilModelChanges) {
  SpectrumService service(fast_config());
  bootstrap(service);

  // First download serializes (miss); repeats are served from the cached
  // bytes without re-serializing, and are byte-identical.
  const std::string first = service.download_model(kChannelA);
  const std::string second = service.download_model(kChannelA);
  const std::string third = service.download_model(kChannelA);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);
  ServiceCounters c = service.counters();
  EXPECT_EQ(c.descriptor_cache_misses, 1u);
  EXPECT_EQ(c.descriptor_cache_hits, 2u);
  EXPECT_EQ(c.bytes_from_cache, 2u * first.size());

  // New data invalidates the snapshot: the next download must re-serialize
  // the rebuilt model, never serve the stale cached bytes.
  service.ingest_campaign(*data_a_);
  (void)service.download_model(kChannelA);
  c = service.counters();
  EXPECT_EQ(c.descriptor_cache_misses, 2u);
  EXPECT_EQ(c.descriptor_cache_hits, 2u);

  // The other channel's cache is untouched by channel A's traffic.
  (void)service.download_model(kChannelB);
  (void)service.download_model(kChannelB);
  c = service.counters();
  EXPECT_EQ(c.descriptor_cache_misses, 3u);
  EXPECT_EQ(c.descriptor_cache_hits, 3u);
  EXPECT_EQ(c.descriptor_cache_hits + c.descriptor_cache_misses,
            c.model_downloads);
}

// A rebuild extends the labels of the previous one by the readings
// appended since. install_channel replaces the dataset instead, so the
// labels of the replaced readings must not survive it, even when the new
// dataset is longer; appends after it must still be labeled.
TEST_F(ServiceFixture, InstallOrAppendAfterRebuildRelabels) {
  SpectrumService service(fast_config());
  bootstrap(service);
  const auto expect_serial_build = [&service](const char* step) {
    core::ModelConstructorConfig serial = fast_config();
    serial.threads = 1;
    const std::string want =
        core::ModelConstructor(serial)
            .build_with_labeling(service.dataset_snapshot(kChannelA))
            .serialize();
    EXPECT_EQ(*service.download_descriptor(kChannelA), want) << step;
  };
  expect_serial_build("bootstrap");

  // Same positions, with every reading west of the middle of the drive
  // turned quiet: labels the first rebuild cached are wrong for it.
  std::mt19937_64 rng(73);
  campaign::ChannelDataset replaced = *data_a_;
  const double quiet = campaign::LabelingConfig{}.threshold_dbm - 30.0;
  const auto [west, east] = std::minmax_element(
      replaced.readings.begin(), replaced.readings.end(),
      [](const campaign::Measurement& a, const campaign::Measurement& b) {
        return a.position.east_m < b.position.east_m;
      });
  const double middle = (west->position.east_m + east->position.east_m) / 2;
  for (campaign::Measurement& m : replaced.readings) {
    if (m.position.east_m < middle) m.rss_dbm = quiet;
  }
  ASSERT_NE(campaign::label_readings(replaced.positions(),
                                     replaced.rss_values()),
            campaign::label_readings(data_a_->positions(),
                                     data_a_->rss_values()));
  for (int i = 0; i < 4; ++i) {
    for (campaign::Measurement& m : make_batch(replaced, rng)) {
      replaced.readings.push_back(std::move(m));
    }
  }
  service.install_channel(core::ChannelState(replaced));
  expect_serial_build("after a longer install");

  campaign::ChannelDataset sweep;
  sweep.channel = kChannelA;
  for (int i = 0; i < 10; ++i) {
    for (campaign::Measurement& m : make_batch(*data_a_, rng)) {
      sweep.readings.push_back(std::move(m));
    }
  }
  service.ingest_campaign(sweep);
  expect_serial_build("after an appended sweep");

  // A shorter install leaves more cached labels than readings.
  service.install_channel(core::ChannelState(*data_a_));
  expect_serial_build("after a shorter install");
}

TEST_F(ServiceFixture, PurgePendingDropsOnlyThatContributor) {
  SpectrumService service(fast_config());
  bootstrap(service);
  campaign::Measurement frontier;
  frontier.position = geo::EnuPoint{-400'000.0, -400'000.0};
  frontier.rss_dbm = -95.0;
  (void)service.upload_measurements(
      kChannelA, std::vector<campaign::Measurement>{frontier}, "mallory");
  frontier.position.north_m += 2'000.0;  // outside corroboration radius
  (void)service.upload_measurements(
      kChannelA, std::vector<campaign::Measurement>{frontier}, "alice");
  EXPECT_EQ(service.pending_count(kChannelA), 2u);
  EXPECT_EQ(service.purge_pending("mallory"), 1u);
  EXPECT_EQ(service.pending_count(kChannelA), 1u);
}

TEST_F(ServiceFixture, FrontendIsolatesMalformedAndThrowingRequests) {
  SpectrumService service(fast_config());
  bootstrap(service);
  ServiceFrontend frontend(service, 4);

  const std::string valid = core::encode(core::ModelRequest{
      .channel = kChannelA, .location = geo::EnuPoint{0.0, 0.0}});
  const std::string unknown_channel = core::encode(core::ModelRequest{
      .channel = 77, .location = geo::EnuPoint{0.0, 0.0}});
  const std::string not_a_request =
      core::encode(core::UploadResponse{.accepted = 1});

  const std::string garbage = "complete garbage, not WSNP at all";
  std::vector<std::future<std::string>> replies;
  replies.push_back(frontend.submit(valid));
  replies.push_back(frontend.submit(garbage));
  replies.push_back(frontend.submit(unknown_channel));
  replies.push_back(frontend.submit(not_a_request));

  const core::Message ok = core::decode(replies[0].get());
  EXPECT_NE(std::get_if<core::ModelResponse>(&ok), nullptr);
  for (std::size_t i = 1; i < replies.size(); ++i) {
    const core::Message reply = core::decode(replies[i].get());
    EXPECT_NE(std::get_if<core::ErrorResponse>(&reply), nullptr)
        << "request " << i << " should have been answered with an error";
  }

  const ServiceStats stats = frontend.stats();
  EXPECT_EQ(stats.requests_served, 4u);
  EXPECT_EQ(stats.error_responses, 3u);
  EXPECT_EQ(stats.model_downloads, 1u);
  EXPECT_EQ(stats.descriptor_cache_hits + stats.descriptor_cache_misses,
            stats.model_downloads);
  EXPECT_GT(stats.bytes_served, 0u);
  EXPECT_LE(stats.p50_handle_us, stats.p99_handle_us);
}

// The tentpole stress test: 8 worker threads and 8 client threads mix
// model downloads, measurement uploads and malformed frames over the wire
// against one service. Afterwards the recorded upload batches are replayed
// in apply-ticket order through the serial reference;
// final datasets and models must match byte-for-byte, and every concurrent
// upload ledger must equal its serial-replay counterpart.
TEST_F(ServiceFixture, StressMatchesSerialReplay) {
  constexpr unsigned kThreads = 8;
  constexpr int kRequestsPerThread = 40;
  constexpr int kChannels[] = {kChannelA, kChannelB};

  SpectrumService service(fast_config());
  bootstrap(service);
  ServiceFrontend frontend(service, kThreads);

  struct RecordedUpload {
    int channel = 0;
    std::uint64_t ticket = 0;
    std::string contributor;
    std::vector<campaign::Measurement> readings;
    core::UploadResponse response;
  };
  std::vector<std::vector<RecordedUpload>> recorded(kThreads);
  std::vector<std::vector<std::string>> download_errors(kThreads);

  {
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        std::mt19937_64 rng(runtime::split_seed(7'777, t));
        std::uniform_real_distribution<double> roll(0.0, 1.0);
        const std::string contributor = "device" + std::to_string(t);
        for (int i = 0; i < kRequestsPerThread; ++i) {
          const int channel = kChannels[rng() % 2];
          const double kind = roll(rng);
          if (kind < 0.45) {  // download
            const std::string reply = frontend
                .submit(core::encode(core::ModelRequest{
                    .channel = channel, .location = geo::EnuPoint{}}))
                .get();
            const core::Message decoded = core::decode(reply);
            if (const auto* err =
                    std::get_if<core::ErrorResponse>(&decoded)) {
              download_errors[t].push_back(err->reason);
            } else {
              ASSERT_NE(std::get_if<core::ModelResponse>(&decoded), nullptr);
            }
          } else if (kind < 0.80) {  // upload
            const campaign::ChannelDataset& base =
                channel == kChannelA ? *data_a_ : *data_b_;
            RecordedUpload rec;
            rec.channel = channel;
            rec.contributor = contributor;
            core::UploadRequest request;
            request.channel = channel;
            request.contributor = contributor;
            request.readings = make_batch(base, rng);
            const std::string wire = core::encode(request);
            // Replay must feed the reference exactly what the server saw:
            // the wire round-trip drops server-only fields (true_rss_dbm),
            // so record the decoded form, not the in-memory original.
            rec.readings =
                std::get<core::UploadRequest>(core::decode(wire)).readings;
            const core::Message decoded =
                core::decode(frontend.submit(wire).get());
            const auto* response =
                std::get_if<core::UploadResponse>(&decoded);
            ASSERT_NE(response, nullptr);
            rec.response = *response;
            rec.ticket = response->ticket;
            recorded[t].push_back(std::move(rec));
          } else {  // malformed / hostile frames, mixed into live traffic
            static const std::string kMalformed[] = {
                "not wsnp",
                "WSNP/1 model_request 99\nshort",
                "WSNP/1 model_request 12\n15 0 0 junk\n",
                "WSNP/1 upload_request 14\n15 eve 999999\n",
                "WSNP/1 bogus_type 0\n",
            };
            const std::string reply =
                frontend.submit(kMalformed[rng() % 5]).get();
            const core::Message decoded = core::decode(reply);
            ASSERT_NE(std::get_if<core::ErrorResponse>(&decoded), nullptr);
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
  }
  // Every download of a bootstrapped channel must have succeeded.
  for (const auto& errors : download_errors) EXPECT_TRUE(errors.empty());

  // Serial replay: same per-channel batch order, serial reference.
  SerialReference reference;
  std::uint64_t total_accepted = 0;
  std::uint64_t total_rejected = 0;
  std::map<int, std::vector<const RecordedUpload*>> by_channel;
  for (const auto& thread_records : recorded) {
    for (const RecordedUpload& rec : thread_records) {
      by_channel[rec.channel].push_back(&rec);
    }
  }
  for (auto& [channel, uploads] : by_channel) {
    std::sort(uploads.begin(), uploads.end(),
              [](const RecordedUpload* a, const RecordedUpload* b) {
                return a->ticket < b->ticket;
              });
    // Tickets are a dense per-channel sequence: no upload was lost or
    // double-applied.
    for (std::size_t i = 0; i < uploads.size(); ++i) {
      ASSERT_EQ(uploads[i]->ticket, i) << "channel " << channel;
    }
    for (const RecordedUpload* rec : uploads) {
      const core::UploadResult serial =
          reference.upload(channel, rec->readings, rec->contributor);
      total_accepted += serial.accepted;
      total_rejected += serial.rejected;
      EXPECT_EQ(serial.accepted, rec->response.accepted);
      EXPECT_EQ(serial.rejected, rec->response.rejected);
      EXPECT_EQ(serial.pending, rec->response.pending);
      EXPECT_EQ(serial.ticket, rec->response.ticket);
    }
  }

  for (const int channel : kChannels) {
    EXPECT_EQ(csv_bytes(service.dataset_snapshot(channel)),
              csv_bytes(reference.channels.at(channel).dataset()))
        << "dataset diverged on channel " << channel;
    EXPECT_EQ(service.model(channel)->serialize(), reference.model(channel))
        << "model diverged on channel " << channel;
    EXPECT_EQ(service.pending_count(channel),
              reference.channels.at(channel).pending().size());
  }
  EXPECT_EQ(service.counters().uploads_accepted, total_accepted);
  EXPECT_EQ(service.counters().uploads_rejected, total_rejected);

  const ServiceStats stats = frontend.stats();
  EXPECT_EQ(stats.requests_served, kThreads * kRequestsPerThread);
  EXPECT_GT(stats.error_responses, 0u);  // the malformed frames
  EXPECT_LE(stats.p50_handle_us, stats.p99_handle_us);
}

// An ingest racing uploads lands between two of them. Four threads upload
// to one channel while a fifth ingests a second sweep of it once and a
// sixth keeps purging a contributor that never parks. Some ticket k must
// then exist such that the uploads with tickets below k, the ingest and
// the rest, replayed serially through a bare core::ChannelState,
// reproduce the channel's state bytes (dataset, pending pool, ticket,
// staleness) and every ledger. An upload that screened before the ingest
// and applied after it would match no k: the ingested sweep moves the
// medians its readings are screened against, and the order of appends.
TEST_F(ServiceFixture, IngestRacingUploadsLandsBetweenTwoTickets) {
  constexpr int kUploaders = 4;
  constexpr int kBatchesPerUploader = 12;
  constexpr std::uint64_t kIngestAfter = 8;  // uploads applied first

  SpectrumService service(fast_config());
  bootstrap(service);
  // The second sweep: the first moved 60 m north-east and 5 dB up.
  campaign::ChannelDataset second = *data_a_;
  for (campaign::Measurement& m : second.readings) {
    m.position.east_m += 60.0;
    m.position.north_m += 60.0;
    m.rss_dbm += 5.0;
  }

  // Readings near stored ones with up to 14 dB of error, so that some sit
  // near max_deviation_db; every third batch leads with a reading at one
  // of four frontier sites, which the pending pool parks or promotes.
  const auto racing_batch = [](std::mt19937_64& rng, int i) {
    std::uniform_int_distribution<std::size_t> pick(0, data_a_->size() - 1);
    std::uniform_real_distribution<double> jitter(-40.0, 40.0);
    std::uniform_real_distribution<double> error(-14.0, 14.0);
    std::vector<campaign::Measurement> batch;
    for (int r = 0; r < 3; ++r) {
      campaign::Measurement m = data_a_->readings[pick(rng)];
      m.position.east_m += jitter(rng);
      m.position.north_m += jitter(rng);
      m.rss_dbm += error(rng);
      m.iq.clear();
      batch.push_back(m);
    }
    if (i % 3 == 0) {
      batch[0].position = geo::EnuPoint{
          -400'000.0 + 3'000.0 * static_cast<double>(rng() % 4), -400'000.0};
      batch[0].rss_dbm = -95.0 + jitter(rng) / 20.0;
    }
    return batch;
  };

  struct RecordedUpload {
    std::string contributor;
    std::vector<campaign::Measurement> readings;
    core::UploadResult ledger;
  };
  std::vector<std::vector<RecordedUpload>> recorded(kUploaders);
  std::atomic<bool> uploads_done{false};
  {
    std::vector<std::thread> writers;
    for (int t = 0; t < kUploaders; ++t) {
      writers.emplace_back([&, t] {
        std::mt19937_64 rng(runtime::split_seed(4'242, t));
        const std::string contributor = "uploader" + std::to_string(t);
        for (int i = 0; i < kBatchesPerUploader; ++i) {
          RecordedUpload rec{contributor, racing_batch(rng, i), {}};
          rec.ledger =
              service.upload_measurements(kChannelA, rec.readings, contributor);
          recorded[t].push_back(std::move(rec));
        }
      });
    }
    writers.emplace_back([&] {
      while (service.uploads_applied(kChannelA) < kIngestAfter) {
        std::this_thread::yield();
      }
      service.ingest_campaign(second);
    });
    std::thread purger([&] {
      do {
        EXPECT_EQ(service.purge_pending("nobody"), 0u);
        std::this_thread::yield();
      } while (!uploads_done.load(std::memory_order_acquire));
    });
    for (std::thread& w : writers) w.join();
    uploads_done.store(true, std::memory_order_release);
    purger.join();
  }

  std::vector<const RecordedUpload*> by_ticket;
  for (const auto& thread_records : recorded) {
    for (const RecordedUpload& rec : thread_records) by_ticket.push_back(&rec);
  }
  std::sort(by_ticket.begin(), by_ticket.end(),
            [](const RecordedUpload* a, const RecordedUpload* b) {
              return a->ledger.ticket < b->ledger.ticket;
            });
  for (std::size_t i = 0; i < by_ticket.size(); ++i) {
    ASSERT_EQ(by_ticket[i]->ledger.ticket, i);
  }
  const auto state_bytes = [](const core::ChannelState& state) {
    codec::Writer out;
    state.encode(out);
    return std::move(out).finish();
  };
  std::string served;
  for (const core::ChannelState& state : service.channel_states()) {
    if (state.channel() == kChannelA) served = state_bytes(state);
  }

  // Every ticket at which the ingest reproduces the channel. More than one
  // can: when the upload just before the ingest accepted nothing and
  // screened the same either way, the state cannot tell the two orders
  // apart.
  std::vector<std::size_t> landed;
  for (std::size_t k = 0; k <= by_ticket.size(); ++k) {
    core::ChannelState replay;
    replay.ingest(*data_a_);
    bool ledgers_match = true;
    for (std::size_t i = 0; i <= by_ticket.size(); ++i) {
      if (i == k) replay.ingest(second);
      if (i == by_ticket.size()) break;
      const RecordedUpload& rec = *by_ticket[i];
      const core::UploadResult serial =
          replay.upload(core::UploadPolicy{}, rec.readings, rec.contributor)
              .ledger;
      ledgers_match = ledgers_match && serial.accepted == rec.ledger.accepted &&
                      serial.rejected == rec.ledger.rejected &&
                      serial.pending == rec.ledger.pending &&
                      serial.ticket == rec.ledger.ticket;
    }
    if (ledgers_match && state_bytes(replay) == served) landed.push_back(k);
  }
  ASSERT_FALSE(landed.empty())
      << "no ticket at which the ingest could have landed";
  EXPECT_GE(landed.back(), kIngestAfter);
}

// stats() is documented as callable at any time: hammer it from reader
// threads while request traffic is in flight (TSan guards the memory
// model) and require every counter to be monotone across snapshots, with
// exact totals once the traffic quiesces. Counters update independently,
// so no cross-field invariant is asserted mid-flight — only at the end.
TEST_F(ServiceFixture, StatsSnapshotsAreSafeAndMonotoneUnderLoad) {
  SpectrumService service(fast_config());
  bootstrap(service);
  ServiceFrontend frontend(service, 2);

  constexpr int kRequests = 120;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::vector<std::string> violations[2];
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&frontend, &done, &violations, r] {
      ServiceStats last;
      while (!done.load(std::memory_order_acquire)) {
        const ServiceStats now = frontend.stats();
        if (now.requests_served < last.requests_served ||
            now.error_responses < last.error_responses ||
            now.bytes_served < last.bytes_served ||
            now.model_downloads < last.model_downloads ||
            now.uploads_accepted < last.uploads_accepted ||
            now.descriptor_cache_hits < last.descriptor_cache_hits ||
            now.descriptor_cache_misses < last.descriptor_cache_misses) {
          violations[r].push_back("counter went backwards");
        }
        if (now.p50_handle_us > now.p99_handle_us) {
          violations[r].push_back("p50 above p99");
        }
        last = now;
      }
    });
  }

  std::mt19937_64 rng(91);
  std::vector<std::future<std::string>> inflight;
  for (int i = 0; i < kRequests; ++i) {
    if (i % 3 == 0) {
      core::UploadRequest upload;
      upload.channel = kChannelA;
      upload.contributor = "dora";
      upload.readings = make_batch(*data_a_, rng);
      inflight.push_back(frontend.submit(core::encode(upload)));
    } else {
      inflight.push_back(frontend.submit(core::encode(
          core::ModelRequest{.channel = (i % 3 == 1) ? kChannelA
                                                     : kChannelB})));
    }
  }
  for (auto& f : inflight) (void)f.get();
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(violations[r].empty())
        << "reader " << r << ": " << violations[r].front();
  }
  const ServiceStats final_stats = frontend.stats();
  EXPECT_EQ(final_stats.requests_served, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(final_stats.error_responses, 0u);
  // At quiescence the cache split must reconcile with the download count.
  EXPECT_EQ(final_stats.descriptor_cache_hits +
                final_stats.descriptor_cache_misses,
            final_stats.model_downloads);
  EXPECT_GT(final_stats.bytes_served, 0u);
}

}  // namespace
}  // namespace waldo::service
