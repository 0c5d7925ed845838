// frontend_open: one SpectrumService behind a ServiceFrontend with
// kWorkers workers, fed by a single open-loop generator thread (workers +
// generator = kClients threads). Requests arrive as a Poisson process at
// kOfferedRate: 85 % model downloads, 10 % 3-reading uploads and 5 %
// malformed frames, on 2 channels of 900 readings, with no rebuilds.
// Latency is timed from each request's due time.
#include <algorithm>
#include <chrono>
#include <future>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <variant>

#include "inputs.hpp"
#include "loadgen.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "waldo/campaign/dataset_io.hpp"
#include "waldo/core/model.hpp"
#include "waldo/core/protocol.hpp"
#include "waldo/runtime/seed.hpp"
#include "waldo/service/frontend.hpp"
#include "waldo/service/service.hpp"
#include "workloads.hpp"

namespace serving {

using namespace waldo;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kWorkers = kClients - 1;
/// Offered load. On a 4-thread host this mix sustains about 12k req/s over
/// a 10 s run when offered more; at half that, the datasets the uploads
/// grow make screening slow enough that the queue overloads before the run
/// ends. A quarter keeps the run in one steady regime.
constexpr double kOfferedRate = 3'000.0;
constexpr std::size_t kReadings = 900;
constexpr std::size_t kNoRebuild = 1'000'000'000;
constexpr std::size_t kSetups = 31;
constexpr std::size_t kRecoveries = 5;
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
constexpr std::uint64_t kSampleEvery = 512;
constexpr std::uint64_t kTraceSliceNs = 250'000'000;

/// Frames every WSNP decoder must refuse as malformed.
const char* const kMalformed[] = {
    "WSNP/1 model_request 12\n15 0 0 junk\n",
    "WSNP/1 upload_request 99999\n15 x",
    "HTTP/1.1 GET /\r\n\r\n",
};

enum class Kind : std::uint8_t { kDownload, kUpload, kMalformed };

struct Request {
  Kind kind = Kind::kDownload;
  std::uint32_t slot = 0;   ///< channel slot (the key)
  std::uint32_t batch = 0;  ///< uploads: index into the batches
  std::string wire;
};

struct InFlight {
  std::size_t index = 0;
  Clock::time_point due;
  Clock::time_point submitted;
  std::future<std::string> reply;
};

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
}

std::unique_ptr<service::SpectrumService> fresh_service(
    const std::vector<campaign::ChannelDataset>& world) {
  auto svc = std::make_unique<service::SpectrumService>(
      serving_model_config(), campaign::LabelingConfig{},
      serving_policy(kNoRebuild));
  for (const campaign::ChannelDataset& sweep : world) svc->ingest_campaign(sweep);
  return svc;
}

[[nodiscard]] std::string dataset_csv(const service::SpectrumService& svc,
                                     int channel) {
  std::ostringstream os;
  campaign::write_csv(os, svc.dataset_snapshot(channel));
  return os.str();
}

void warm(service::SpectrumService& svc) {
  for (const int channel : kChannels) (void)svc.download_descriptor(channel);
}

}  // namespace

RunResult run_frontend_workload(const Options& o) {
  RunResult result;
  Tracer& tracer = Tracer::instance();

  // -- inputs (untimed) ------------------------------------------------------
  const std::vector<campaign::ChannelDataset> world = make_world(kReadings);
  const std::vector<std::uint64_t> schedule =
      poisson_schedule(kOfferedRate, o.seconds, runtime::split_seed(o.seed, 0));
  std::vector<Request> requests(schedule.size());
  std::vector<Batch> batches;
  {
    std::mt19937_64 rng(runtime::split_seed(o.seed, 1));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    BatchMaker maker({&world[0], &world[1]}, {geo::EnuPoint{}, geo::EnuPoint{}});
    for (Request& r : requests) {
      const double u = unit(rng);
      r.slot = static_cast<std::uint32_t>(rng() % kNumChannels);
      if (u < 0.85) {
        r.kind = Kind::kDownload;
        r.wire = core::encode(core::ModelRequest{.channel = kChannels[r.slot], .location = {}});
      } else if (u < 0.95) {
        r.kind = Kind::kUpload;
        r.batch = static_cast<std::uint32_t>(batches.size());
        batches.push_back(maker.make(rng, r.slot, 0));
        core::UploadRequest up;
        up.channel = kChannels[r.slot];
        up.contributor = batches.back().contributor;
        up.readings = batches.back().readings;
        r.wire = core::encode(up);
      } else {
        r.kind = Kind::kMalformed;
        r.wire = kMalformed[rng() % std::size(kMalformed)];
      }
    }
  }

  // -- set-up ------------------------------------------------------------------
  std::vector<double> setup_s;
  std::unique_ptr<service::SpectrumService> svc;
  std::unique_ptr<service::ServiceFrontend> frontend;
  for (std::size_t i = 0; i < kSetups; ++i) {
    frontend.reset();
    svc.reset();
    const auto t0 = Clock::now();
    svc = fresh_service(world);
    warm(*svc);
    frontend = std::make_unique<service::ServiceFrontend>(*svc, kWorkers);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const service::ServiceStats before = frontend->stats();

  // -- open-loop load ------------------------------------------------------------
  LatencyLog download_ns(kMaxSamples), upload_ns(kMaxSamples / 4);
  std::vector<std::uint64_t> completed_per_window(kWindows, 0);
  std::vector<std::uint64_t> lag_ns, queued_ns;
  lag_ns.reserve(requests.size());
  queued_ns.reserve(requests.size());
  std::vector<UploadRecord> uploads;
  std::vector<std::pair<std::size_t, std::string>> samples;
  std::uint64_t downloads = 0;
  std::uint64_t traced_done = 0, untraced_done = 0;
  double latency_sum_ns = 0.0;
  std::vector<InFlight> inflight;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto traced_at = [&](Clock::time_point t) {
    return o.trace && (ns_between(start, t) / kTraceSliceNs) % 2 == 1;
  };

  const auto finish = [&](InFlight& f, Clock::time_point done) {
    const Request& r = requests[f.index];
    const std::uint64_t latency = ns_between(f.due, done);
    const std::size_t window = static_cast<std::size_t>(
        static_cast<double>(kWindows) * 1e-9 *
        static_cast<double>(ns_between(start, f.due)) / o.seconds);
    const bool traced = traced_at(f.due);
    (traced ? traced_done : untraced_done) += 1;
    if (traced) {
      const std::uint64_t end = tracer.now_ns();
      tracer.record("request", end - std::min(end, latency), end);
    }
    latency_sum_ns += static_cast<double>(latency);
    queued_ns.push_back(ns_between(f.submitted, done));
    const std::string reply = f.reply.get();
    try {
      switch (r.kind) {
        case Kind::kDownload: {
          download_ns.add(latency, window);
          ++downloads;
          constexpr std::string_view kPrefix = "WSNP/1 model_response ";
          if (reply.compare(0, kPrefix.size(), kPrefix) != 0) {
            throw std::runtime_error("download answered with " +
                                     reply.substr(0, 40));
          }
          if (downloads % kSampleEvery == 1) {
            const auto m = std::get<core::ModelResponse>(core::decode(reply));
            samples.emplace_back(r.slot, m.descriptor);
          }
          break;
        }
        case Kind::kUpload: {
          upload_ns.add(latency, window);
          const auto m = std::get<core::UploadResponse>(core::decode(reply));
          uploads.push_back({.key = r.slot,
                             .client = 0,
                             .batch = r.batch,
                             .ticket = m.ticket,
                             .accepted = static_cast<std::uint32_t>(m.accepted),
                             .rejected = static_cast<std::uint32_t>(m.rejected),
                             .pending = static_cast<std::uint32_t>(m.pending)});
          break;
        }
        case Kind::kMalformed: {
          const auto m = std::get<core::ErrorResponse>(core::decode(reply));
          if (m.code != core::ErrorCode::kMalformed) {
            throw std::runtime_error("malformed frame answered with code " +
                                     std::to_string(static_cast<int>(m.code)));
          }
          break;
        }
      }
      ++completed_per_window[std::min(window, kWindows - 1)];
    } catch (const std::exception& e) {
      ++result.failed;
      if (result.errors.size() < 8) result.fail(std::string("reply check: ") + e.what());
    }
  };
  const auto poll = [&] {
    for (std::size_t j = 0; j < inflight.size();) {
      if (inflight[j].reply.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        finish(inflight[j], Clock::now());
        inflight[j] = std::move(inflight.back());
        inflight.pop_back();
      } else {
        ++j;
      }
    }
  };
  tracer.enable(o.trace);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto due = start + std::chrono::nanoseconds(schedule[i]);
    auto now = Clock::now();
    while (now < due) {
      poll();
      now = Clock::now();
    }
    lag_ns.push_back(ns_between(due, now));
    inflight.push_back({i, due, now, frontend->submit(requests[i].wire)});
  }
  while (!inflight.empty()) poll();
  tracer.enable(false);
  const double elapsed = seconds_between(start, Clock::now());
  result.attempted = requests.size();
  const service::ServiceStats stats = frontend->stats();

  // -- recovery: a restarted node re-ingests and replays its upload log --------
  check_ledgers(uploads, kNumChannels, result);
  std::vector<const UploadRecord*> log;
  for (const UploadRecord& u : uploads) log.push_back(&u);
  std::sort(log.begin(), log.end(), [](const UploadRecord* a, const UploadRecord* b) {
    return a->key != b->key ? a->key < b->key : a->ticket < b->ticket;
  });
  std::vector<std::string> log_wires(log.size());
  {
    // The log holds the verbatim upload wires, in ticket order per channel.
    std::vector<std::size_t> wire_of_batch(batches.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].kind == Kind::kUpload) wire_of_batch[requests[i].batch] = i;
    }
    for (std::size_t i = 0; i < log.size(); ++i) {
      log_wires[i] = requests[wire_of_batch[log[i]->batch]].wire;
    }
  }
  std::vector<double> recover_s;
  // Untraced runs restart once, for the check; traced runs time
  // kRecoveries restarts (service.recover.s).
  for (std::size_t i = 0; i < (o.trace ? kRecoveries : 1); ++i) {
    const auto t0 = Clock::now();
    auto restarted = fresh_service(world);
    for (const std::string& wire : log_wires) {
      const auto up = std::get<core::UploadRequest>(core::decode(wire));
      (void)restarted->upload_measurements(up.channel, up.readings, up.contributor);
    }
    warm(*restarted);
    recover_s.push_back(seconds_between(t0, Clock::now()));
    for (const int channel : kChannels) {
      if (dataset_csv(*restarted, channel) != dataset_csv(*svc, channel)) {
        result.fail("replaying the upload log does not reproduce the service");
      }
    }
  }
  for (const auto& [slot, bytes] : samples) {
    const core::WhiteSpaceModel model = core::WhiteSpaceModel::deserialize(bytes);
    if (model.channel() != kChannels[slot] || model.serialize() != bytes ||
        bytes != *svc->download_descriptor(kChannels[slot])) {
      result.fail("a downloaded descriptor does not match the service's");
    }
  }

  auto& e = result.end_to_end;
  e["throughput_rps"] = {
      windowed_rate(completed_per_window, o.seconds / kWindows), "1/s"};
  e["download_p50_us"] = {windowed_quantile({&download_ns}, 0.50) / 1e3, "us"};
  e["download_p99_us"] = {windowed_quantile({&download_ns}, 0.99) / 1e3, "us"};
  e["upload_p50_us"] = {windowed_quantile({&upload_ns}, 0.50) / 1e3, "us"};
  e["upload_p99_us"] = {windowed_quantile({&upload_ns}, 0.99) / 1e3, "us"};
  e["setup_s"] = {median(setup_s), "s"};
  e["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  if (!o.trace) return result;

  // -- per-layer metrics -----------------------------------------------------------
  const core::UploadPolicy policy = serving_policy(kNoRebuild);
  const ScreenReplay screen = replay_screening(
      uploads, kNumChannels, [&](std::size_t slot) { return world[slot]; },
      [&](const UploadRecord& u) -> const Batch& { return batches[u.batch]; },
      policy, kClients, 0, result);
  const BuildReplay build = replay_builds(world);
  std::vector<std::pair<int, std::string>> descriptors;
  for (const auto& [slot, bytes] : samples) {
    if (descriptors.size() < 64) descriptors.emplace_back(kChannels[slot], bytes);
  }
  std::vector<const Batch*> batch_sample;
  for (std::size_t i = 0; i < batches.size() && i < 256; ++i) {
    batch_sample.push_back(&batches[i]);
  }
  const WireCosts w = replay_wires(descriptors, batch_sample, uploads, {}, {});
  const double cache_read_ns = time_per_call(
      [&] { (void)svc->download_descriptor(kChannels[0]); });

  const auto dl = static_cast<double>(downloads);
  const auto up = static_cast<double>(uploads.size());
  const double handle_p50_us = stats.p50_handle_us;
  std::uint64_t accepted = 0, rejected = 0, pending = 0;
  for (const UploadRecord& u : uploads) {
    accepted += u.accepted;
    rejected += u.rejected;
    pending += u.pending;
  }
  const double submitted = static_cast<double>(accepted + rejected + pending);
  const double hits = static_cast<double>(stats.descriptor_cache_hits -
                                          before.descriptor_cache_hits);
  const double misses = static_cast<double>(stats.descriptor_cache_misses -
                                            before.descriptor_cache_misses);
  const double traced_s = 0.5 * elapsed;

  auto& p = result.per_layer;
  p["service.recover.s"] = {median(recover_s), "s"};
  p["core.protocol.decode_ns"] = {
      ratio(dl * w.dec_model_request + up * w.dec_upload_request, dl + up), "ns"};
  p["core.protocol.encode_ns"] = {
      ratio(dl * w.enc_model_response + up * w.enc_upload_response, dl + up), "ns"};
  p["core.screen.batch_ns"] = {screen.screen_ns, "ns"};
  p["core.screen.accept_ratio"] = {ratio(static_cast<double>(accepted), submitted), "ratio"};
  p["core.screen.reject_ratio"] = {ratio(static_cast<double>(rejected), submitted), "ratio"};
  p["core.screen.pending_ratio"] = {ratio(static_cast<double>(pending), submitted), "ratio"};
  p["core.screen.pending_readings"] = {static_cast<double>(screen.pending_left), "count"};
  p["core.build.ns"] = {build.build_ns, "ns"};
  p["campaign.label.ns"] = {build.label_ns, "ns"};
  p["codec.serialize_ns"] = {build.serialize_ns, "ns"};
  p["codec.descriptor_bytes"] = {build.descriptor_bytes, "bytes"};
  p["service.cache.read_ns"] = {cache_read_ns, "ns"};
  p["service.rebuilds_per_kdownload"] = {
      1e3 * ratio(static_cast<double>(stats.rebuilds - before.rebuilds), dl), "count"};
  p["service.cache.hit_ratio"] = {ratio(hits, hits + misses), "ratio"};
  p["service.frontend.handle_p50_us"] = {handle_p50_us, "us"};
  p["service.frontend.handle_p99_us"] = {stats.p99_handle_us, "us"};
  p["service.frontend.queue_wait_us"] = {quantile(queued_ns, 0.5) / 1e3 - handle_p50_us, "us"};
  p["loadgen.lag_p99_us"] = {quantile(lag_ns, 0.99) / 1e3, "us"};
  p["trace.overhead_ratio"] = {
      ratio(static_cast<double>(traced_done) / traced_s,
            static_cast<double>(untraced_done) / (elapsed - traced_s)),
      "ratio"};
  p["trace.coverage_ratio"] = {
      ratio(dl * (w.dec_model_request + cache_read_ns + w.enc_model_response) +
                up * (w.dec_upload_request + screen.screen_ns +
                      w.enc_upload_response),
            latency_sum_ns),
      "ratio"};
  if (!o.spans_out.empty() && !tracer.write_csv(o.spans_out, 200'000)) {
    result.fail("could not write " + o.spans_out);
  }
  return result;
}

}  // namespace serving
