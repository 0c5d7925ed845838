#include "waldo/service/frontend.hpp"

#include <chrono>
#include <memory>
#include <string_view>
#include <utility>

namespace waldo::service {

namespace {

// Cheap error-reply detection on the wire form — avoids a decode just to
// account the response. The header is "WSNP/1 error <len>\n...".
[[nodiscard]] bool is_error_wire(std::string_view wire) noexcept {
  constexpr std::string_view kErrorPrefix = "WSNP/1 error ";
  return wire.substr(0, kErrorPrefix.size()) == kErrorPrefix;
}

}  // namespace

ServiceFrontend::ServiceFrontend(SpectrumService& service, unsigned workers)
    : service_(&service),
      server_(service),
      pool_(runtime::resolve_threads(workers)) {}

std::string ServiceFrontend::handle_isolated(
    const std::string& request_wire) noexcept {
  const auto start = std::chrono::steady_clock::now();
  std::string response;
  try {
    response = server_.handle(request_wire);
  } catch (const std::exception& e) {
    // ProtocolServer already folds its exceptions into ErrorResponse; this
    // is the worker's last line of defence (e.g. bad_alloc mid-encode).
    try {
      response = core::encode(core::ErrorResponse{.reason = e.what()});
    } catch (...) {
      response.clear();
    }
  } catch (...) {
    try {
      response = core::encode(core::ErrorResponse{.reason = "unknown error"});
    } catch (...) {
      response.clear();
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  latency_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  requests_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(response.size(), std::memory_order_relaxed);
  if (is_error_wire(response)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

std::future<std::string> ServiceFrontend::submit(std::string request_wire) {
  // ThreadPool tasks are std::function (copyable), so the promise rides in
  // a shared_ptr.
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  pool_.submit([this, promise, wire = std::move(request_wire)] {
    promise->set_value(handle_isolated(wire));
  });
  return future;
}

std::string ServiceFrontend::handle(const std::string& request_wire) {
  return handle_isolated(request_wire);
}

ServiceStats ServiceFrontend::stats() const {
  ServiceStats out;
  out.requests_served = requests_.load(std::memory_order_relaxed);
  out.error_responses = errors_.load(std::memory_order_relaxed);
  out.bytes_served = bytes_.load(std::memory_order_relaxed);
  const ServiceCounters service = service_->counters();
  out.model_downloads = service.model_downloads;
  out.uploads_accepted = service.uploads_accepted;
  out.rebuilds = service.models_built;
  out.descriptor_cache_hits = service.descriptor_cache_hits;
  out.descriptor_cache_misses = service.descriptor_cache_misses;
  const runtime::LatencyHistogram::Snapshot latency = latency_.snapshot();
  out.p50_handle_us = latency.p50_ns / 1000.0;
  out.p99_handle_us = latency.p99_ns / 1000.0;
  return out;
}

}  // namespace waldo::service
