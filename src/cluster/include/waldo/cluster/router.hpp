// ClusterRouter — the client-facing edge of the cluster tier.
//
// The router owns no spectrum state. It computes the tile for a request's
// location, ranks the tile's replicas by HRW priority, and drives the
// request to completion against the membership view: uploads go to the
// tile primary, downloads spread across ready replicas (synchronous
// replication means any ready replica is as current as the ack the client
// saw). Every failure mode maps to one policy:
//
//  - TransportError / garbled reply -> retry (next replica for reads),
//    after a deterministic exponential-backoff-with-jitter delay;
//  - retryable WSNP error (kNotOwner, kNotReady, kUnavailable) -> same;
//  - permanent WSNP error (kMalformed, kUnknownChannel, ...) -> throw
//    immediately: resending a bad request anywhere fails identically;
//  - per-request deadline exceeded -> throw with the last failure.
//
// Uploads are made retry-safe by stamping each logical request with a
// unique request id (derived from the router seed): a retried frame that
// already executed hits the server's dedup table and returns the original
// ledger — exactly-once upload semantics over an at-most-once transport.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>

#include "waldo/campaign/measurement.hpp"
#include "waldo/cluster/membership.hpp"
#include "waldo/cluster/node.hpp"
#include "waldo/cluster/transport.hpp"
#include "waldo/core/protocol.hpp"
#include "waldo/runtime/backoff.hpp"

namespace waldo::cluster {

struct RouterConfig {
  /// A request that cannot be completed within this budget fails.
  std::chrono::milliseconds deadline{5'000};
  /// Delay schedule between attempts; in-process scale by default.
  runtime::BackoffConfig backoff{.base = std::chrono::nanoseconds{200'000},
                                 .cap = std::chrono::nanoseconds{10'000'000}};
  /// Root for request-id generation and jitter streams.
  std::uint64_t seed = 1;
};

struct RouterStats {
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;    ///< extra attempts beyond the first
  std::uint64_t failovers = 0;  ///< requests that needed >1 attempt
  std::uint64_t failures = 0;   ///< permanent errors + deadline misses
};

class ClusterRouter {
 public:
  ClusterRouter(ClusterTopology topology, Transport& transport,
                const MembershipView& membership, RouterConfig config = {});

  /// Uploads a batch for the tile containing `location`. Throws
  /// std::runtime_error on permanent errors or deadline exhaustion.
  core::UploadResponse upload(int channel, const geo::EnuPoint& location,
                              const std::string& contributor,
                              std::span<const campaign::Measurement> readings);

  /// Serialized model descriptor for (channel, tile-of-location) — the
  /// node-cached bytes, shipped without re-serialization. Throws like
  /// upload().
  std::string download_descriptor(int channel, const geo::EnuPoint& location);

  /// Unique, never-zero id for a logical upload; stable retry identity.
  [[nodiscard]] std::uint64_t next_request_id() noexcept;

  [[nodiscard]] RouterStats stats() const;

 private:
  /// Routes a pre-encoded WSNP request wire (is_upload selects primary
  /// vs. spread-read placement). Returns the reply, decoded once; never an
  /// ErrorResponse (those throw or are retried).
  core::Message route(const geo::EnuPoint& location, const std::string& wire,
                      bool is_upload);

  const ClusterTopology topology_;
  Transport* transport_;
  const MembershipView* membership_;
  const RouterConfig config_;

  std::atomic<std::uint64_t> request_counter_{0};
  std::atomic<std::uint64_t> read_rotor_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> failures_{0};
};

}  // namespace waldo::cluster
