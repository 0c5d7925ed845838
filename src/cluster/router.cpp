#include "waldo/cluster/router.hpp"

#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>

#include "waldo/cluster/wire.hpp"
#include "waldo/runtime/seed.hpp"

namespace waldo::cluster {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

ClusterRouter::ClusterRouter(ClusterTopology topology, Transport& transport,
                             const MembershipView& membership,
                             RouterConfig config)
    : topology_(topology),
      transport_(&transport),
      membership_(&membership),
      config_(config) {}

std::uint64_t ClusterRouter::next_request_id() noexcept {
  const std::uint64_t ordinal =
      request_counter_.fetch_add(1, std::memory_order_relaxed);
  // split_seed output could in principle be 0 (the "no dedup" sentinel);
  // force the low bit instead of special-casing the one-in-2^64 draw.
  return runtime::split_seed(config_.seed, ordinal) | 1u;
}

core::Message ClusterRouter::route(const geo::EnuPoint& location,
                                   const std::string& wire, bool is_upload) {
  const TileKey tile = topology_.tiling.tile_of(location);
  const auto replicas =
      replica_set(tile, topology_.num_nodes, topology_.replication);
  const std::string envelope = encode_envelope(
      {.verb = "wsnp", .from = kClientNode, .tile = tile, .body = wire});

  const Clock::time_point start = Clock::now();
  // Seeded on the first retry, so a request that succeeds at once writes
  // no counter that every client thread shares.
  std::optional<runtime::Backoff> backoff;
  std::size_t rotate =
      is_upload ? 0
                : static_cast<std::size_t>(
                      read_rotor_.fetch_add(1, std::memory_order_relaxed) %
                      replicas.size());
  bool failed_over = false;
  std::string last_failure = "no live replica";

  while (true) {
    // Pick this attempt's target. Uploads chase the tile primary (first
    // non-dead replica — matches the node-side fencing rule); reads take
    // the first *ready* replica starting from a rotating offset.
    const Membership* m = membership_->snapshot();
    NodeId target = kClientNode;
    if (is_upload) {
      for (const NodeId n : replicas) {
        if (m->alive(n)) {
          target = n;
          break;
        }
      }
    } else {
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        const NodeId n = replicas[(rotate + i) % replicas.size()];
        if (m->ready(n)) {
          target = n;
          break;
        }
      }
    }

    if (target != kClientNode) {
      std::optional<core::ErrorResponse> permanent;
      try {
        const Envelope reply =
            decode_envelope(transport_->send(target, envelope));
        core::Message message = core::decode(reply.body);
        if (const auto* err = std::get_if<core::ErrorResponse>(&message)) {
          if (core::is_retryable(err->code)) {
            last_failure = err->reason;
          } else {
            permanent = *err;
          }
        } else {
          if (failed_over) {
            failovers_.fetch_add(1, std::memory_order_relaxed);
          }
          return message;
        }
      } catch (const TransportError& e) {
        last_failure = e.what();
      } catch (const std::exception& e) {
        last_failure = e.what();  // garbled reply — retry
      }
      if (permanent.has_value()) {
        failures_.fetch_add(1, std::memory_order_relaxed);
        throw std::runtime_error(
            "cluster: permanent error (code " +
            std::to_string(static_cast<int>(permanent->code)) + ", channel " +
            std::to_string(permanent->channel) + "): " + permanent->reason);
      }
    }

    if (Clock::now() - start >
        std::chrono::duration_cast<Clock::duration>(config_.deadline)) {
      failures_.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("cluster: request deadline exceeded; last: " +
                               last_failure);
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    failed_over = true;
    if (!is_upload) ++rotate;  // reads fail over to the next replica
    if (!backoff) {
      backoff.emplace(config_.backoff,
                      runtime::split_seed(config_.seed,
                                          request_counter_.fetch_add(
                                              1, std::memory_order_relaxed)));
    }
    std::this_thread::sleep_for(backoff->next());
  }
}

core::UploadResponse ClusterRouter::upload(
    int channel, const geo::EnuPoint& location, const std::string& contributor,
    std::span<const campaign::Measurement> readings) {
  core::UploadRequest request;
  request.channel = channel;
  request.contributor = contributor;
  request.request_id = next_request_id();
  request.location = location;
  request.readings.assign(readings.begin(), readings.end());
  requests_.fetch_add(1, std::memory_order_relaxed);
  // One wire for every attempt: the request id must not change across
  // retries or the dedup table cannot recognise them.
  const core::Message reply =
      route(location, core::encode(request), /*is_upload=*/true);
  const auto* response = std::get_if<core::UploadResponse>(&reply);
  if (response == nullptr) {
    throw std::runtime_error("cluster: unexpected reply to upload");
  }
  return *response;
}

std::string ClusterRouter::download_descriptor(int channel,
                                               const geo::EnuPoint& location) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  core::Message reply = route(
      location,
      core::encode(core::ModelRequest{.channel = channel,
                                      .location = location}),
      /*is_upload=*/false);
  auto* response = std::get_if<core::ModelResponse>(&reply);
  if (response == nullptr) {
    throw std::runtime_error("cluster: unexpected reply to model request");
  }
  return std::move(response->descriptor);
}

RouterStats ClusterRouter::stats() const {
  RouterStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  out.failovers = failovers_.load(std::memory_order_relaxed);
  out.failures = failures_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace waldo::cluster
