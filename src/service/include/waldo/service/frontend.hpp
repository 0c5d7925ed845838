// The WSNP server: N worker threads (a dedicated runtime::ThreadPool)
// draining a queue of WSNP wire requests; each is decoded, dispatched to
// one SpectrumService and its reply encoded. Per-request error
// isolation is absolute — a malformed or throwing request resolves to an
// encoded ErrorResponse, never an exception out of a worker — and every
// request is accounted in a ServiceStats snapshot (counts, bytes, p50/p99
// handle latency) queryable at any time.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <string>

#include "waldo/runtime/histogram.hpp"
#include "waldo/runtime/thread_pool.hpp"
#include "waldo/service/service.hpp"

namespace waldo::service {

/// Point-in-time operational snapshot of a frontend and its service.
struct ServiceStats {
  std::uint64_t requests_served = 0;
  std::uint64_t error_responses = 0;  ///< requests answered with an error
  std::uint64_t bytes_served = 0;     ///< response wire bytes
  std::uint64_t model_downloads = 0;
  std::uint64_t uploads_accepted = 0;
  std::uint64_t rebuilds = 0;  ///< models built by the service
  /// Descriptor-cache effectiveness: downloads served from the cached
  /// serialized descriptor vs. downloads that had to serialize.
  std::uint64_t descriptor_cache_hits = 0;
  std::uint64_t descriptor_cache_misses = 0;
  double p50_handle_us = 0.0;  ///< handle-latency quantiles (microseconds)
  double p99_handle_us = 0.0;
};

class ServiceFrontend {
 public:
  /// `workers` = 0 resolves to all hardware threads (runtime convention).
  ServiceFrontend(SpectrumService& service, unsigned workers);
  /// Joins the workers after draining every in-flight request.
  ~ServiceFrontend() = default;

  ServiceFrontend(const ServiceFrontend&) = delete;
  ServiceFrontend& operator=(const ServiceFrontend&) = delete;

  /// Enqueues one request; the future yields the response wire. Workers
  /// never throw: malformed or throwing requests resolve to an encoded
  /// ErrorResponse (per-request error isolation).
  [[nodiscard]] std::future<std::string> submit(std::string request_wire);

  /// Synchronous convenience: serves on the calling thread with the same
  /// isolation and accounting (useful for in-process transports).
  [[nodiscard]] std::string handle(const std::string& request_wire);

  [[nodiscard]] unsigned workers() const noexcept { return pool_.size(); }
  [[nodiscard]] ServiceStats stats() const;

 private:
  [[nodiscard]] std::string handle_isolated(
      const std::string& request_wire) noexcept;

  SpectrumService* service_;
  runtime::ThreadPool pool_;
  runtime::LatencyHistogram latency_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace waldo::service
