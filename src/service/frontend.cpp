#include "waldo/service/frontend.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>
#include <variant>

#include "waldo/core/protocol.hpp"

namespace waldo::service {

namespace {

// Decode, then dispatch to the service: every request wire maps to exactly
// one reply, and a store failure becomes an ErrorResponse naming the
// failing channel. Keeps no per-request state, so it is reentrant.
[[nodiscard]] core::Message respond(SpectrumService& service,
                                    const std::string& request_wire) {
  core::Message request;
  try {
    request = core::decode(request_wire);
  } catch (const std::exception& e) {
    return core::ErrorResponse{.reason = e.what(),
                               .code = core::ErrorCode::kMalformed};
  }

  if (const auto* r = std::get_if<core::ModelRequest>(&request)) {
    try {
      if (!service.has_channel(r->channel)) {
        return core::ErrorResponse{
            .reason = "no data for channel " + std::to_string(r->channel),
            .code = core::ErrorCode::kUnknownChannel,
            .channel = r->channel};
      }
      return core::ModelResponse{
          .channel = r->channel,
          .descriptor = service.download_model(r->channel)};
    } catch (const std::exception& e) {
      return core::ErrorResponse{.reason = e.what(),
                                 .code = core::ErrorCode::kInternal,
                                 .channel = r->channel};
    }
  }
  if (const auto* r = std::get_if<core::UploadRequest>(&request)) {
    try {
      const core::UploadResult result = service.upload_measurements(
          r->channel, r->readings, r->contributor);
      return core::UploadResponse{.accepted = result.accepted,
                                  .rejected = result.rejected,
                                  .pending = result.pending,
                                  .ticket = result.ticket};
    } catch (const std::out_of_range& e) {
      // The service throws out_of_range for uploads addressing a channel
      // that was never bootstrapped.
      return core::ErrorResponse{.reason = e.what(),
                                 .code = core::ErrorCode::kUnknownChannel,
                                 .channel = r->channel};
    } catch (const std::exception& e) {
      return core::ErrorResponse{.reason = e.what(),
                                 .code = core::ErrorCode::kInternal,
                                 .channel = r->channel};
    }
  }
  return core::ErrorResponse{.reason = "server only accepts request messages",
                             .code = core::ErrorCode::kBadRequest};
}

}  // namespace

ServiceFrontend::ServiceFrontend(SpectrumService& service, unsigned workers)
    : service_(&service), pool_(runtime::resolve_threads(workers)) {}

std::string ServiceFrontend::handle_isolated(
    const std::string& request_wire) noexcept {
  const auto start = std::chrono::steady_clock::now();
  std::string response;
  bool is_error = true;
  try {
    const core::Message reply = respond(*service_, request_wire);
    response = core::encode(reply);
    is_error = std::holds_alternative<core::ErrorResponse>(reply);
  } catch (const std::exception& e) {
    // respond() already folds store exceptions into ErrorResponse; this is
    // the worker's last line of defence (e.g. bad_alloc mid-encode).
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
  if (is_error) errors_.fetch_add(1, std::memory_order_relaxed);
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
