#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <variant>

#include "waldo/cluster/wire.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/core/protocol.hpp"

namespace serving {

using namespace waldo;
using Clock = std::chrono::steady_clock;

namespace {

[[nodiscard]] double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Upload wires carry a fixed request id: ids never change a verdict.
[[nodiscard]] std::string upload_wire(const Batch& batch,
                                      const geo::EnuPoint& location) {
  core::UploadRequest up;
  up.channel = channel_of_key(batch.key);
  up.contributor = batch.contributor;
  up.request_id = 0x5EED5EEDu;
  up.location = location;
  up.readings = batch.readings;
  return core::encode(up);
}

}  // namespace

double time_per_call(const std::function<void()>& fn, double budget_ms) {
  fn();  // warm caches and lazy state
  const auto start = Clock::now();
  const auto budget = std::chrono::duration<double, std::milli>(budget_ms);
  std::uint64_t calls = 0;
  Clock::time_point now = start;
  do {
    for (int i = 0; i < 16; ++i) fn();
    calls += 16;
    now = Clock::now();
  } while (now - start < budget);
  return ns_between(start, now) / static_cast<double>(calls);
}

void check_ledgers(const std::vector<UploadRecord>& uploads,
                   std::size_t num_keys, RunResult& result) {
  std::vector<std::vector<std::uint64_t>> tickets(num_keys);
  for (const UploadRecord& u : uploads) {
    if (u.accepted + u.rejected + u.pending != kBatchReadings) {
      result.fail("upload ledger on key " + std::to_string(u.key) +
                  " accounts for " +
                  std::to_string(u.accepted + u.rejected + u.pending) +
                  " of " + std::to_string(kBatchReadings) + " readings");
    }
    if (u.key >= num_keys) {
      result.fail("upload ledger names unknown key " + std::to_string(u.key));
      continue;
    }
    tickets[u.key].push_back(u.ticket);
  }
  for (std::size_t key = 0; key < num_keys; ++key) {
    auto& t = tickets[key];
    std::sort(t.begin(), t.end());
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i] != i) {
        result.fail("apply tickets of key " + std::to_string(key) +
                    " are not contiguous at position " + std::to_string(i));
        break;
      }
    }
  }
}

ScreenReplay replay_screening(
    const std::vector<UploadRecord>& uploads, std::size_t num_keys,
    const std::function<campaign::ChannelDataset(std::size_t)>& start,
    const std::function<const Batch&(const UploadRecord&)>& batch_of,
    const core::UploadPolicy& policy, unsigned threads,
    std::size_t snapshots_per_key, RunResult& result) {
  std::vector<std::vector<const UploadRecord*>> by_key(num_keys);
  for (const UploadRecord& u : uploads) {
    if (u.key < num_keys) by_key[u.key].push_back(&u);
  }
  for (auto& list : by_key) {
    std::sort(list.begin(), list.end(),
              [](const UploadRecord* a, const UploadRecord* b) {
                return a->ticket < b->ticket;
              });
  }

  ScreenReplay total;
  double decode_ns = 0.0;
  double screen_ns = 0.0;
  std::mutex merge_mutex;
  std::atomic<std::size_t> next_key{0};
  const auto worker = [&] {
    ScreenReplay local;
    double local_decode = 0.0;
    double local_screen = 0.0;
    std::vector<std::string> local_errors;
    for (std::size_t key = next_key.fetch_add(1); key < num_keys;
         key = next_key.fetch_add(1)) {
      const auto& list = by_key[key];
      if (list.empty()) continue;
      campaign::ChannelDataset stored = start(key);
      std::vector<core::PendingReading> pending;
      std::size_t next_snapshot = 1;
      for (std::size_t i = 0; i < list.size(); ++i) {
        const UploadRecord& u = *list[i];
        const std::string wire = upload_wire(batch_of(u), {});
        const auto t0 = Clock::now();
        const core::Message message = core::decode(wire);
        const auto t1 = Clock::now();
        const auto& request = std::get<core::UploadRequest>(message);
        std::vector<campaign::Measurement> accepted;
        const auto t2 = Clock::now();
        const core::UploadResult verdict =
            core::screen_upload(stored, pending, policy, request.readings,
                                request.contributor, accepted);
        const auto t3 = Clock::now();
        local_decode += ns_between(t0, t1);
        local_screen += ns_between(t2, t3);
        stored.readings.insert(stored.readings.end(), accepted.begin(),
                               accepted.end());
        ++local.batches;
        local.readings += request.readings.size();
        local.accepted += verdict.accepted;
        local.rejected += verdict.rejected;
        local.pending += verdict.pending;
        if (verdict.accepted != u.accepted || verdict.rejected != u.rejected ||
            verdict.pending != u.pending) {
          if (local_errors.size() < 8) {
            local_errors.push_back(
                "replayed verdict differs from the ledger on key " +
                std::to_string(key) + " ticket " + std::to_string(u.ticket));
          }
        }
        if (snapshots_per_key > 0 &&
            (i + 1) * snapshots_per_key >= next_snapshot * list.size()) {
          local.snapshots.push_back(stored);
          ++next_snapshot;
        }
      }
      local.pending_left += pending.size();
    }
    const std::lock_guard lock(merge_mutex);
    total.batches += local.batches;
    total.readings += local.readings;
    total.accepted += local.accepted;
    total.rejected += local.rejected;
    total.pending += local.pending;
    total.pending_left += local.pending_left;
    for (auto& s : local.snapshots) total.snapshots.push_back(std::move(s));
    for (auto& e : local_errors) result.fail(std::move(e));
    decode_ns += local_decode;
    screen_ns += local_screen;
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  const auto n = static_cast<double>(total.batches);
  total.decode_ns = ratio(decode_ns, n);
  total.screen_ns = ratio(screen_ns, n);
  return total;
}

BuildReplay replay_builds(
    const std::vector<campaign::ChannelDataset>& datasets) {
  BuildReplay out;
  if (datasets.empty()) return out;
  const core::ModelConstructor constructor(serving_model_config());
  const campaign::LabelingConfig labeling;
  for (const campaign::ChannelDataset& ds : datasets) {
    const auto t0 = Clock::now();
    const std::vector<geo::EnuPoint> positions = ds.positions();
    const std::vector<double> rss = ds.rss_values();
    const std::vector<int> labels =
        campaign::label_readings(positions, rss, labeling);
    const auto t1 = Clock::now();
    const core::WhiteSpaceModel model = constructor.build(ds, labels);
    const auto t2 = Clock::now();
    const std::string bytes = model.serialize();
    const auto t3 = Clock::now();
    out.label_ns += ns_between(t0, t1);
    out.build_ns += ns_between(t1, t2);
    out.serialize_ns += ns_between(t2, t3);
    out.descriptor_bytes += static_cast<double>(bytes.size());
  }
  const auto n = static_cast<double>(datasets.size());
  out.label_ns /= n;
  out.build_ns /= n;
  out.serialize_ns /= n;
  out.descriptor_bytes /= n;
  return out;
}

WireCosts replay_wires(
    const std::vector<std::pair<int, std::string>>& descriptors,
    const std::vector<const Batch*>& batches,
    const std::vector<UploadRecord>& ledgers, const geo::EnuPoint& location,
    cluster::TileKey tile) {
  WireCosts c;
  std::size_t sink = 0;
  // Cycles through `items`, timing `op` on each in turn.
  const auto timed = [&sink](const auto& items, const auto& op) {
    if (items.empty()) return 0.0;
    std::size_t i = 0;
    return time_per_call([&] {
      sink += op(items[i]);
      i = (i + 1) % items.size();
    });
  };
  const auto decoded = [](const std::string& wire) {
    return core::decode(wire).index();
  };
  const auto envelope_round_trip = [](const cluster::Envelope& e) {
    return cluster::decode_envelope(cluster::encode_envelope(e)).body.size();
  };
  const auto envelopes = [&tile](const std::vector<std::string>& bodies,
                                 const char* verb, cluster::NodeId from) {
    std::vector<cluster::Envelope> out;
    for (const std::string& b : bodies) {
      out.push_back({.verb = verb, .from = from, .tile = tile, .body = b});
    }
    return out;
  };

  std::vector<core::Message> model_requests, model_responses, upload_requests,
      upload_responses;
  for (const auto& [channel, descriptor] : descriptors) {
    model_requests.emplace_back(
        core::ModelRequest{.channel = channel, .location = location});
    model_responses.emplace_back(
        core::ModelResponse{.channel = channel, .descriptor = descriptor});
  }
  std::vector<std::string> upload_wires;
  for (const Batch* b : batches) {
    upload_wires.push_back(upload_wire(*b, location));
    upload_requests.push_back(core::decode(upload_wires.back()));
  }
  for (std::size_t i = 0; i < ledgers.size() && i < 256; ++i) {
    const UploadRecord& u = ledgers[i];
    upload_responses.emplace_back(core::UploadResponse{.accepted = u.accepted,
                                                       .rejected = u.rejected,
                                                       .pending = u.pending,
                                                       .ticket = u.ticket});
  }
  const auto encode_all = [](const std::vector<core::Message>& messages) {
    std::vector<std::string> wires;
    for (const core::Message& m : messages) wires.push_back(core::encode(m));
    return wires;
  };
  const auto encoded = [](const core::Message& m) {
    return core::encode(m).size();
  };
  const std::vector<std::string> mreq = encode_all(model_requests);
  const std::vector<std::string> mresp = encode_all(model_responses);
  const std::vector<std::string> uresp = encode_all(upload_responses);

  c.enc_model_request = timed(model_requests, encoded);
  c.dec_model_request = timed(mreq, decoded);
  c.enc_model_response = timed(model_responses, encoded);
  c.dec_model_response = timed(mresp, decoded);
  c.enc_upload_request = timed(upload_requests, encoded);
  c.dec_upload_request = timed(upload_wires, decoded);
  c.enc_upload_response = timed(upload_responses, encoded);
  c.dec_upload_response = timed(uresp, decoded);

  c.env_download_request = timed(envelopes(mreq, "wsnp", cluster::kClientNode),
                                 envelope_round_trip);
  c.env_download_response =
      timed(envelopes(mresp, "wsnp", 0), envelope_round_trip);
  c.env_upload_request = timed(
      envelopes(upload_wires, "wsnp", cluster::kClientNode), envelope_round_trip);
  c.env_upload_response =
      timed(envelopes(uresp, "wsnp", 0), envelope_round_trip);
  std::vector<cluster::ReplEntry> entries;
  for (std::size_t i = 0; i < upload_wires.size(); ++i) {
    entries.push_back({.channel = channel_of_key(batches[i]->key),
                       .ticket = i,
                       .request_id = 0x5EED5EEDu + i,
                       .upload_wire = upload_wires[i]});
  }
  c.env_repl = timed(entries, [&tile](const cluster::ReplEntry& e) {
    const std::string wire = cluster::encode_envelope(
        {.verb = "repl", .from = 0, .tile = tile,
         .body = cluster::encode_repl_entry(e)});
    return cluster::decode_repl_entry(cluster::decode_envelope(wire).body)
        .upload_wire.size();
  });
  c.env_ok = timed(envelopes({std::string()}, "ok", 1), envelope_round_trip);
  return c;
}

}  // namespace serving
