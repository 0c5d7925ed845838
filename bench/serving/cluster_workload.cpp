// Cluster workloads: N=4 nodes, R=2, no injected faults, kClients
// closed-loop clients sharing one ClusterRouter.
//
//   download_fleet  Zipf(1) downloads over 16 tiles x 2 channels, 900
//                   readings per dataset; afterwards kClients writers
//                   upload kProbeUploads batches with no reads beside them
//                   (its upload latencies).
//   upload_crowd    50/50 uploads/downloads, uniform over 16 x 2 keys,
//                   5,282 readings per dataset, no rebuilds.
//   rebuild_churn   80/20 downloads/uploads over 4 x 2 keys, 5,282
//                   readings, rebuild_threshold 1.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <tuple>

#include "inputs.hpp"
#include "loadgen.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "waldo/cluster/cluster.hpp"
#include "waldo/cluster/router.hpp"
#include "waldo/cluster/wire.hpp"
#include "waldo/core/model.hpp"
#include "waldo/runtime/seed.hpp"
#include "waldo/service/service.hpp"
#include "workloads.hpp"

namespace serving {

using namespace waldo;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kNoRebuild = 1'000'000'000;
constexpr cluster::NodeId kNodes = 4;
constexpr std::size_t kReplication = 2;
constexpr std::size_t kOpsPerClient = std::size_t{1} << 15;
constexpr std::size_t kProbeUploads = 5'000;
/// The node every recovery cycle kills and recovers. Always the same node,
/// so every cycle and every run recovers the same tiles.
constexpr cluster::NodeId kVictim = 0;
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  // per client
/// Which keys are hot is part of the world, like the map: the seed draws
/// the request sequence, not the popularity ranking.
constexpr std::uint64_t kPopularitySeed = 0x0E1D0;
constexpr std::uint64_t kSampleEvery = 512;
constexpr auto kTraceSlice = std::chrono::milliseconds(250);

struct Spec {
  std::int32_t tiles_side = 4;
  std::size_t readings = 900;
  bool zipf = false;
  double upload_share = 0.0;
  std::size_t rebuild_threshold = kNoRebuild;
  bool write_probe = false;
  std::size_t setups = 3;      ///< set-ups per run (median reported)
  /// Timed kill + recover cycles (median reported), after one untimed
  /// cycle that lets the allocator and caches settle after the load.
  std::size_t recoveries = 3;
};

Spec spec_of(const std::string& name) {
  if (name == "download_fleet") return {4, 900, true, 0.0, kNoRebuild, true, 5, 7};
  if (name == "upload_crowd") return {4, 5282, false, 0.5, kNoRebuild, false, 3, 1};
  if (name == "rebuild_churn") return {2, 5282, false, 0.2, 1, false, 5, 4};
  throw std::invalid_argument("unknown cluster workload: " + name);
}

struct Op {
  std::uint32_t key = 0;
  std::uint32_t batch = 0;  ///< index into the stream's batches (uploads)
  bool upload = false;
};

struct ClientStream {
  std::vector<Op> ops;
  std::vector<Batch> batches;
};

struct ClientLog {
  LatencyLog download_ns{kMaxSamples};
  LatencyLog upload_ns{kMaxSamples / 4};
  std::vector<std::uint64_t> completed_per_window =
      std::vector<std::uint64_t>(kWindows, 0);
  std::uint64_t ops = 0;
  std::uint64_t downloads = 0;
  std::uint64_t failures = 0;
  std::string first_error;
  std::vector<UploadRecord> uploads;
  std::vector<std::pair<std::size_t, std::string>> samples;  ///< key, bytes
  /// (serving node, key, descriptor fingerprint) of every download; traced
  /// runs only.
  std::set<std::tuple<cluster::NodeId, std::size_t, std::uint64_t>> served;
};

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] std::uint32_t clamp_ns(Clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return static_cast<std::uint32_t>(std::clamp<std::int64_t>(ns, 0, 0xFFFFFFFF));
}

/// Distinguishes descriptors by size and their trailing bytes (the codec's
/// CRC32 trailer sits there).
[[nodiscard]] std::uint64_t fingerprint(const std::string& bytes) {
  std::uint64_t tail = 0;
  if (bytes.size() >= sizeof tail) {
    std::memcpy(&tail, bytes.data() + bytes.size() - sizeof tail, sizeof tail);
  }
  return runtime::mix64(tail ^ (bytes.size() * 0x9E3779B97F4A7C15ull));
}

struct Deployment {
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<TimingTransport> timing;
  /// Fingerprint of every replica's warm descriptor, keyed (node, key).
  std::map<std::pair<cluster::NodeId, std::size_t>, std::uint64_t> warm;

  cluster::Transport& transport() {
    return timing ? *timing : cluster->transport();
  }
};

/// From empty nodes to every tile-channel warm on every replica; returns
/// the seconds it took. kClients loader threads share the tiles.
double set_up(Deployment& d, const Spec& spec,
              const std::vector<TileInput>& tiles, bool trace,
              RunResult& result) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.replication = kReplication;
  cfg.tile_size_m = kTileSizeM;
  cfg.constructor_config = serving_model_config();
  cfg.upload_policy = serving_policy(spec.rebuild_threshold);
  const auto start = Clock::now();
  d.cluster = std::make_unique<cluster::Cluster>(std::move(cfg));
  if (trace) {
    d.timing = std::make_unique<TimingTransport>(d.cluster->transport());
    for (cluster::NodeId n = 0; n < kNodes; ++n) {
      d.cluster->node(n).attach_transport(*d.timing);
    }
  }
  std::mutex mutex;  // guards d.warm and result
  const auto load = [&](std::size_t first) {
    for (std::size_t i = first; i < tiles.size(); i += kClients) {
      for (const campaign::ChannelDataset& sweep : tiles[i].sweeps) {
        if (d.cluster->ingest_campaign(sweep) != tiles[i].tile) {
          const std::lock_guard lock(mutex);
          result.fail("a sweep was placed outside its tile");
        }
      }
      for (const cluster::NodeId r : d.cluster->replicas_of(tiles[i].tile)) {
        for (std::size_t slot = 0; slot < kNumChannels; ++slot) {
          const std::string bytes = d.cluster->node(r).descriptor_bytes(
              tiles[i].tile, kChannels[slot]);
          const std::lock_guard lock(mutex);
          if (bytes.empty()) result.fail("a replica has no model after set-up");
          d.warm[{r, i * kNumChannels + slot}] = fingerprint(bytes);
        }
      }
    }
  };
  std::vector<std::thread> loaders;
  for (std::size_t c = 0; c < kClients; ++c) loaders.emplace_back(load, c);
  for (std::thread& t : loaders) t.join();
  return seconds_between(start, Clock::now());
}

void run_client(cluster::ClusterRouter& router,
                const std::vector<TileInput>& tiles, const ClientStream& stream,
                std::uint32_t id, Clock::time_point start,
                Clock::time_point stop, bool trace, ClientLog& log) {
  Tracer& tracer = Tracer::instance();
  std::uint64_t request = 0;
  for (std::size_t i = 0;; ++i) {
    const auto t0 = Clock::now();
    if (t0 >= stop) break;
    const Op& op = stream.ops[i % stream.ops.size()];
    const int channel = channel_of_key(op.key);
    const geo::EnuPoint& where = tiles[tile_of_key(op.key)].center;
    if (trace) tracer.local().request_id = (std::uint64_t{id} << 40) | ++request;
    const auto window = static_cast<std::size_t>(
        static_cast<double>(kWindows) *
        (std::chrono::duration<double>(t0 - start) / (stop - start)));
    ++log.ops;
    try {
      if (!op.upload) {
        std::string bytes;
        {
          const ScopedSpan span("download");
          bytes = router.download_descriptor(channel, where);
        }
        const auto t1 = Clock::now();
        if (bytes.empty()) throw std::runtime_error("empty descriptor");
        if (!trace) log.download_ns.add(clamp_ns(t1 - t0), window);
        ++log.downloads;
        if (trace) {
          log.served.emplace(last_wsnp_target(), op.key, fingerprint(bytes));
        }
        if (log.downloads % kSampleEvery == 1) {
          log.samples.emplace_back(op.key, std::move(bytes));
        }
      } else {
        const Batch& batch = stream.batches[op.batch];
        core::UploadResponse reply;
        {
          const ScopedSpan span("upload");
          reply = router.upload(channel, where, batch.contributor,
                                batch.readings);
        }
        const auto t1 = Clock::now();
        if (!trace) log.upload_ns.add(clamp_ns(t1 - t0), window);
        log.uploads.push_back({.key = op.key,
                               .client = id,
                               .batch = op.batch,
                               .ticket = reply.ticket,
                               .accepted = static_cast<std::uint32_t>(reply.accepted),
                               .rejected = static_cast<std::uint32_t>(reply.rejected),
                               .pending = static_cast<std::uint32_t>(reply.pending)});
      }
      ++log.completed_per_window[std::min(window, kWindows - 1)];
    } catch (const std::exception& e) {
      ++log.failures;
      if (log.first_error.empty()) log.first_error = e.what();
    }
  }
}

/// Layer times read from the spans of the traced slices.
struct SpanLayers {
  double ops = 0, e2e_ns = 0, router_self_ns = 0;
  double downloads = 0, uploads = 0;
  double node_downloads = 0, node_download_ns = 0;
  double node_uploads = 0, node_upload_self_ns = 0;
  double repl_sends = 0, repl_ns = 0;
};

SpanLayers analyze_spans() {
  SpanLayers out;
  for (const Tracer::ThreadLog* log : Tracer::instance().logs()) {
    const auto& spans = log->spans;
    const std::vector<std::uint64_t> self = self_times(spans);
    // 0 download root, 1 upload root, 2 its wsnp send, 3 an upload's send.
    std::vector<std::int8_t> kind(spans.size(), -1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::string_view name(s.name);
      const auto dur = static_cast<double>(s.duration_ns());
      if (s.parent < 0) {
        if (name == "download") {
          kind[i] = 0;
          ++out.downloads;
        } else if (name == "upload") {
          kind[i] = 1;
          ++out.uploads;
        } else {
          continue;
        }
        ++out.ops;
        out.e2e_ns += dur;
        out.router_self_ns += static_cast<double>(self[i]);
        continue;
      }
      const std::int8_t parent = kind[static_cast<std::size_t>(s.parent)];
      if (name == "wsnp" && parent == 0) {
        kind[i] = 2;
        ++out.node_downloads;
        out.node_download_ns += dur;
      } else if (name == "wsnp" && parent == 1) {
        kind[i] = 3;
        ++out.node_uploads;
        out.node_upload_self_ns += static_cast<double>(self[i]);
      } else if (name == "repl" && parent == 3) {
        ++out.repl_sends;
        out.repl_ns += dur;
      }
    }
  }
  return out;
}

}  // namespace

bool is_cluster_workload(const std::string& name) {
  return name == "download_fleet" || name == "upload_crowd" ||
         name == "rebuild_churn";
}

RunResult run_cluster_workload(const Options& o) {
  RunResult result;
  const Spec spec = spec_of(o.workload);
  Tracer& tracer = Tracer::instance();

  // -- inputs (untimed) ------------------------------------------------------
  const std::vector<campaign::ChannelDataset> world = make_world(spec.readings);
  const std::vector<TileInput> tiles = make_tiles(world, spec.tiles_side);
  const std::size_t keys = tiles.size() * kNumChannels;
  const ZipfPicker zipf(keys, 1.0, kPopularitySeed);
  const UniformPicker uniform(keys);
  std::vector<const campaign::ChannelDataset*> key_sweeps;
  std::vector<geo::EnuPoint> key_centers;
  for (std::size_t key = 0; key < keys; ++key) {
    const TileInput& t = tiles[tile_of_key(key)];
    key_sweeps.push_back(&t.sweeps[slot_of_key(key)]);
    key_centers.push_back(t.center);
  }
  BatchMaker maker(key_sweeps, key_centers);
  std::vector<ClientStream> streams(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    std::mt19937_64 rng(runtime::split_seed(o.seed, c + 1));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    ClientStream& s = streams[c];
    s.ops.reserve(kOpsPerClient);
    for (std::size_t n = 0; n < kOpsPerClient; ++n) {
      Op op;
      op.upload = unit(rng) < spec.upload_share;
      op.key = static_cast<std::uint32_t>(spec.zipf ? zipf(rng) : uniform(rng));
      if (op.upload) {
        op.batch = static_cast<std::uint32_t>(s.batches.size());
        s.batches.push_back(maker.make(rng, op.key, c));
      }
      s.ops.push_back(op);
    }
  }
  // Writers after the download phase; writer c records as client
  // kClients + c.
  std::vector<std::vector<Batch>> probe(spec.write_probe ? kClients : 0);
  for (std::uint32_t c = 0; c < probe.size(); ++c) {
    std::mt19937_64 rng(runtime::split_seed(o.seed, 99 + c));
    for (std::size_t n = 0; n < kProbeUploads / kClients; ++n) {
      probe[c].push_back(maker.make(rng, uniform(rng), kClients + c));
    }
  }
  const auto batch_of = [&](const UploadRecord& u) -> const Batch& {
    return u.client < kClients ? streams[u.client].batches[u.batch]
                               : probe[u.client - kClients][u.batch];
  };

  // -- set-up, several times; the last deployment serves the load ------------
  std::vector<double> setup_s;
  Deployment d;
  for (std::size_t i = 0; i < spec.setups; ++i) {
    d = Deployment{};
    setup_s.push_back(set_up(d, spec, tiles, o.trace, result));
  }
  cluster::RouterConfig router_config;
  router_config.seed = runtime::split_seed(o.seed, 7);
  cluster::ClusterRouter router(d.cluster->topology(), d.transport(),
                                d.cluster->membership(), router_config);

  // -- load --------------------------------------------------------------------
  std::vector<ClientLog> logs(kClients);
  const auto start = Clock::now();
  const auto stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(o.seconds));
  double traced_s = 0.0;
  double untraced_s = 0.0;
  {
    std::vector<std::thread> clients;
    for (std::uint32_t c = 0; c < kClients; ++c) {
      clients.emplace_back(run_client, std::ref(router), std::cref(tiles),
                           std::cref(streams[c]), c, start, stop, o.trace,
                           std::ref(logs[c]));
    }
    if (o.trace) {
      // Alternate untraced and traced slices so both see the same state.
      bool on = false;
      auto slice_start = start;
      while (slice_start < stop) {
        std::this_thread::sleep_until(std::min(slice_start + kTraceSlice, stop));
        const auto now = Clock::now();
        (on ? traced_s : untraced_s) += seconds_between(slice_start, now);
        on = !on;
        tracer.enable(on);
        slice_start = now;
      }
      tracer.enable(false);
    }
    for (std::thread& c : clients) c.join();
  }

  std::vector<UploadRecord> uploads;
  std::vector<const LatencyLog*> download_ns, upload_ns;
  std::vector<std::uint64_t> completed_per_window(kWindows, 0);
  std::uint64_t downloads = 0;
  for (const ClientLog& log : logs) {
    for (std::size_t w = 0; w < kWindows; ++w) {
      completed_per_window[w] += log.completed_per_window[w];
    }
    result.attempted += log.ops;
    result.failed += log.failures;
    downloads += log.downloads;
    if (!log.first_error.empty()) result.fail("request failed: " + log.first_error);
    uploads.insert(uploads.end(), log.uploads.begin(), log.uploads.end());
    download_ns.push_back(&log.download_ns);
    upload_ns.push_back(&log.upload_ns);
  }
  const auto load_ops = static_cast<double>(result.attempted);
  std::vector<LatencyLog> probe_logs;
  const SpanLayers spans = o.trace ? analyze_spans() : SpanLayers{};

  // -- the unloaded write path (download_fleet) -------------------------------
  if (spec.write_probe) {
    std::vector<ClientLog> writers(kClients);
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = writers[c];
        const std::vector<Batch>& batches = probe[c];
        for (std::uint32_t b = 0; b < batches.size(); ++b) {
          const Batch& batch = batches[b];
          ++log.ops;
          try {
            const auto t0 = Clock::now();
            const core::UploadResponse reply =
                router.upload(channel_of_key(batch.key),
                              tiles[tile_of_key(batch.key)].center,
                              batch.contributor, batch.readings);
            log.upload_ns.add(clamp_ns(Clock::now() - t0),
                              b * kWindows / batches.size());
            log.uploads.push_back(
                {.key = batch.key,
                 .client = kClients + c,
                 .batch = b,
                 .ticket = reply.ticket,
                 .accepted = static_cast<std::uint32_t>(reply.accepted),
                 .rejected = static_cast<std::uint32_t>(reply.rejected),
                 .pending = static_cast<std::uint32_t>(reply.pending)});
          } catch (const std::exception& e) {
            ++log.failures;
            if (log.first_error.empty()) log.first_error = e.what();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    upload_ns.clear();
    for (ClientLog& log : writers) {
      result.attempted += log.ops;
      result.failed += log.failures;
      if (!log.first_error.empty()) result.fail("upload failed: " + log.first_error);
      uploads.insert(uploads.end(), log.uploads.begin(), log.uploads.end());
      probe_logs.push_back(std::move(log.upload_ns));
    }
    for (const LatencyLog& l : probe_logs) upload_ns.push_back(&l);
  }
  check_ledgers(uploads, keys, result);

  // -- output checks, before any recovery -----------------------------------
  std::map<std::size_t, std::string> final_bytes;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const auto replicas = d.cluster->replicas_of(tiles[i].tile);
    for (std::size_t slot = 0; slot < kNumChannels; ++slot) {
      const int channel = kChannels[slot];
      cluster::ClusterNode& a = d.cluster->node(replicas[0]);
      cluster::ClusterNode& b = d.cluster->node(replicas[1]);
      const std::string csv = a.dataset_csv(tiles[i].tile, channel);
      if (csv.empty() || csv != b.dataset_csv(tiles[i].tile, channel)) {
        result.fail("replicas hold different datasets for key " +
                    std::to_string(i * kNumChannels + slot));
      }
      const std::string bytes = a.descriptor_bytes(tiles[i].tile, channel);
      if (bytes.empty() || bytes != b.descriptor_bytes(tiles[i].tile, channel)) {
        result.fail("replicas serve different descriptors for key " +
                    std::to_string(i * kNumChannels + slot));
      }
      final_bytes[i * kNumChannels + slot] = bytes;
    }
  }
  for (const auto& [key, bytes] : final_bytes) {
    if (router.download_descriptor(channel_of_key(key),
                                   tiles[tile_of_key(key)].center) != bytes) {
      result.fail("a routed download differs from the replicas' descriptor");
    }
  }
  for (const ClientLog& log : logs) {
    for (const auto& [key, bytes] : log.samples) {
      const core::WhiteSpaceModel model = core::WhiteSpaceModel::deserialize(bytes);
      if (model.channel() != channel_of_key(key) || model.serialize() != bytes) {
        result.fail("a downloaded descriptor does not round-trip");
      }
      if (spec.rebuild_threshold == kNoRebuild && bytes != final_bytes[key]) {
        result.fail("a downloaded descriptor differs from the replicas'");
      }
    }
  }

  // -- recovery: the log pull a recovering node pays, then kill + recover -----
  double pull_ns = 0.0;
  double snapshot_bytes = 0.0;
  if (o.trace) {
    for (const TileInput& t : tiles) {
      const auto replicas = d.cluster->replicas_of(t.tile);
      if (std::find(replicas.begin(), replicas.end(), kVictim) ==
          replicas.end()) {
        continue;
      }
      const cluster::NodeId source =
          replicas[0] == kVictim ? replicas[1] : replicas[0];
      const std::string pull = cluster::encode_envelope(
          {.verb = "pull", .from = kVictim, .tile = t.tile, .body = {}});
      const auto t0 = Clock::now();
      const std::string reply = d.transport().send(source, pull);
      pull_ns += static_cast<double>(clamp_ns(Clock::now() - t0));
      snapshot_bytes += static_cast<double>(reply.size());
      if (cluster::decode_envelope(reply).verb != "state") {
        result.fail("a recovery pull did not return the tile state");
      }
    }
  }
  std::vector<double> recover_s;
  // Untraced runs recover once, for the replica check below; traced runs
  // also time spec.recoveries more cycles (cluster.recover.s).
  const std::size_t cycles = o.trace ? spec.recoveries + 1 : 1;
  for (std::size_t i = 0; i < cycles; ++i) {
    d.cluster->kill(kVictim);
    const auto t0 = Clock::now();
    d.cluster->recover(kVictim);
    if (i > 0) recover_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Recovered replicas must hold their peers' datasets byte for byte.
  // (Their models may differ: a recovered replica rebuilds from every
  // accepted reading, a peer keeps its cached model until the rebuild
  // threshold is crossed.)
  for (const TileInput& t : tiles) {
    const auto replicas = d.cluster->replicas_of(t.tile);
    for (const int channel : kChannels) {
      const std::string csv = d.cluster->node(replicas[0]).dataset_csv(t.tile, channel);
      if (csv.empty() ||
          csv != d.cluster->node(replicas[1]).dataset_csv(t.tile, channel)) {
        result.fail("a recovered replica's dataset differs from its peer's");
      }
    }
  }

  // -- end-to-end metrics ------------------------------------------------------
  auto& e = result.end_to_end;
  e["throughput_rps"] = {
      windowed_rate(completed_per_window, o.seconds / kWindows), "1/s"};
  e["download_p50_us"] = {windowed_quantile(download_ns, 0.50) / 1e3, "us"};
  e["download_p99_us"] = {windowed_quantile(download_ns, 0.99) / 1e3, "us"};
  e["upload_p50_us"] = {windowed_quantile(upload_ns, 0.50) / 1e3, "us"};
  e["upload_p99_us"] = {windowed_quantile(upload_ns, 0.99) / 1e3, "us"};
  e["setup_s"] = {median(setup_s), "s"};
  e["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  if (!o.trace) return result;

  // -- per-layer metrics: spans, ledgers and replay ------------------------------
  const core::UploadPolicy policy = serving_policy(spec.rebuild_threshold);
  const ScreenReplay screen = replay_screening(
      uploads, keys,
      [&](std::size_t key) {
        return d.cluster->normalized_campaign(tiles[tile_of_key(key)].tile,
                                              slot_of_key(key));
      },
      batch_of, policy, kClients,
      spec.rebuild_threshold == 1 ? 4 : 0, result);
  std::vector<campaign::ChannelDataset> rebuilt = screen.snapshots;
  if (rebuilt.empty()) {
    for (std::size_t slot = 0; slot < kNumChannels; ++slot) {
      rebuilt.push_back(d.cluster->normalized_campaign(tiles[0].tile, slot));
    }
  }
  const BuildReplay build = replay_builds(rebuilt);

  std::vector<std::pair<int, std::string>> descriptors;
  for (const ClientLog& log : logs) {
    for (const auto& [key, bytes] : log.samples) {
      if (descriptors.size() < 64) descriptors.emplace_back(channel_of_key(key), bytes);
    }
  }
  if (descriptors.empty()) {
    descriptors.emplace_back(channel_of_key(0), final_bytes[0]);
  }
  std::vector<const Batch*> batch_sample;
  for (std::size_t i = 0; i < uploads.size() && batch_sample.size() < 256; ++i) {
    batch_sample.push_back(&batch_of(uploads[i]));
  }
  const WireCosts w = replay_wires(descriptors, batch_sample, uploads,
                                   tiles[0].center, tiles[0].tile);

  double cache_read_ns = 0.0;
  {
    service::SpectrumService svc(serving_model_config(), {}, policy);
    svc.ingest_campaign(world[0]);
    const int channel = world[0].channel;
    cache_read_ns = time_per_call([&] { (void)svc.download_descriptor(channel); });
  }

  // Models each replica served: the warm one plus one per rebuild.
  std::map<std::pair<cluster::NodeId, std::size_t>, std::set<std::uint64_t>> models;
  for (const auto& [where, fp] : d.warm) models[where].insert(fp);
  for (const ClientLog& log : logs) {
    for (const auto& [node, key, fp] : log.served) models[{node, key}].insert(fp);
  }
  double rebuilds = 0.0;
  for (const auto& [where, fps] : models) rebuilds += static_cast<double>(fps.size() - 1);

  const double r = ratio(spans.repl_sends, spans.node_uploads);
  const double dl = spans.downloads;
  const double up = spans.uploads;
  const double rebuilds_traced = rebuilds * ratio(dl, static_cast<double>(downloads));
  const double dl_leaf = w.env_download_request + w.env_download_response +
                         w.enc_model_request + 2 * w.dec_model_request +
                         w.enc_model_response + 2 * w.dec_model_response +
                         cache_read_ns;
  const double up_leaf = w.env_upload_request + w.env_upload_response +
                         r * (w.env_repl + w.env_ok) + w.enc_upload_request +
                         (2 + r) * w.dec_upload_request +
                         (1 + r) * screen.screen_ns +
                         (1 + r) * w.enc_upload_response +
                         2 * w.dec_upload_response;
  const double rebuild_leaf = build.label_ns + build.build_ns + build.serialize_ns;

  std::uint64_t accepted = 0, rejected = 0, pending = 0;
  for (const UploadRecord& u : uploads) {
    accepted += u.accepted;
    rejected += u.rejected;
    pending += u.pending;
  }
  const double submitted = static_cast<double>(accepted + rejected + pending);
  const cluster::RouterStats rs = router.stats();

  auto& p = result.per_layer;
  p["cluster.router.self_ns"] = {ratio(spans.router_self_ns, spans.ops), "ns"};
  p["cluster.router.retries"] = {static_cast<double>(rs.retries), "count"};
  p["cluster.router.failovers"] = {static_cast<double>(rs.failovers), "count"};
  p["cluster.wire.envelope_ns"] = {
      ratio(dl * (w.env_download_request + w.env_download_response) +
                up * (w.env_upload_request + w.env_upload_response +
                      r * (w.env_repl + w.env_ok)),
            2 * dl + up * (2 + 2 * r)),
      "ns"};
  p["cluster.node.download_ns"] = {ratio(spans.node_download_ns, spans.node_downloads), "ns"};
  p["cluster.node.upload_self_ns"] = {ratio(spans.node_upload_self_ns, spans.node_uploads), "ns"};
  p["cluster.repl.send_ns"] = {ratio(spans.repl_ns, spans.repl_sends), "ns"};
  p["cluster.repl.sends_per_upload"] = {r, "count"};
  p["cluster.recover.s"] = {median(recover_s), "s"};
  p["cluster.recover.pull_ns"] = {pull_ns, "ns"};
  p["cluster.recover.snapshot_bytes"] = {snapshot_bytes, "bytes"};
  p["core.protocol.decode_ns"] = {
      ratio(dl * (2 * w.dec_model_request + 2 * w.dec_model_response) +
                up * ((2 + r) * w.dec_upload_request + 2 * w.dec_upload_response),
            4 * dl + up * (4 + r)),
      "ns"};
  p["core.protocol.encode_ns"] = {
      ratio(dl * (w.enc_model_request + w.enc_model_response) +
                up * (w.enc_upload_request + (1 + r) * w.enc_upload_response),
            2 * dl + up * (2 + r)),
      "ns"};
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
      1e3 * ratio(rebuilds, static_cast<double>(downloads)), "count"};
  p["service.cache.hit_ratio"] = {
      1.0 - ratio(rebuilds, static_cast<double>(downloads)), "ratio"};
  p["trace.overhead_ratio"] = {
      ratio(ratio(spans.ops, traced_s),
            ratio(load_ops - spans.ops, untraced_s)),
      "ratio"};
  p["trace.coverage_ratio"] = {
      ratio(dl * dl_leaf + up * up_leaf + rebuilds_traced * rebuild_leaf,
            spans.e2e_ns),
      "ratio"};
  if (!o.spans_out.empty() && !tracer.write_csv(o.spans_out, 200'000)) {
    result.fail("could not write " + o.spans_out);
  }
  return result;
}

}  // namespace serving
