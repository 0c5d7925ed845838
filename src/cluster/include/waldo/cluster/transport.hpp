// The pluggable message fabric between cluster participants.
//
// Transport::send carries one request envelope to one node and returns its
// response envelope — the narrow waist where an in-memory loopback (this
// PR) and a socket fabric (future) are interchangeable. Failures are
// exceptions (TransportError), never silent: a router that catches one
// knows only that the request MAY have executed, which is exactly the
// ambiguity real networks force and the reason uploads carry dedup
// request ids.
//
// FaultInjector is the chaos hook the loopback consults per message. Every
// decision derives from (seed, message-ordinal) via SplitMix64, so a fault
// schedule is reproducible for a given interleaving without any global
// RNG state — rerunning a seed under a debugger replays the same drops.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "waldo/cluster/tiling.hpp"
#include "waldo/runtime/seed.hpp"

namespace waldo::cluster {

/// The message never completed: dropped request, dropped response, or the
/// destination node is dead. The caller cannot know whether the far side
/// executed the request.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Delivers `envelope` to node `to`; returns the response envelope.
  /// Throws TransportError when delivery or the reply fails.
  virtual std::string send(NodeId to, const std::string& envelope) = 0;
};

/// Probabilities in [0, 1]; all zero (the default) injects nothing.
struct FaultPlan {
  double drop_request = 0.0;    ///< message lost before the node sees it
  double drop_response = 0.0;   ///< node executed, reply lost
  double duplicate_request = 0.0;  ///< message delivered twice
  double delay = 0.0;           ///< message delayed before delivery
  std::uint32_t max_delay_us = 0;  ///< uniform delay bound when delayed
  std::uint64_t seed = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan = {})
      : plan_(plan),
        inert_(plan.drop_request <= 0.0 && plan.drop_response <= 0.0 &&
               plan.duplicate_request <= 0.0 &&
               (plan.delay <= 0.0 || plan.max_delay_us == 0)) {}

  struct Decision {
    bool drop_request = false;
    bool drop_response = false;
    bool duplicate = false;
    std::uint32_t delay_us = 0;
  };

  /// The fate of the next message. Thread-safe; the i-th call's decision
  /// is a pure function of (plan.seed, i). A plan that injects nothing
  /// returns at once, without the ordinal every sender shares.
  [[nodiscard]] Decision next() noexcept {
    if (inert_) return {};
    const std::uint64_t ordinal =
        ordinal_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t state = runtime::split_seed(plan_.seed, ordinal);
    const auto draw = [&state]() noexcept {
      state = runtime::mix64(state);
      return static_cast<double>(state >> 11) * 0x1.0p-53;  // U[0, 1)
    };
    Decision d;
    d.drop_request = draw() < plan_.drop_request;
    d.drop_response = draw() < plan_.drop_response;
    d.duplicate = draw() < plan_.duplicate_request;
    if (draw() < plan_.delay && plan_.max_delay_us > 0) {
      d.delay_us = static_cast<std::uint32_t>(
          draw() * static_cast<double>(plan_.max_delay_us));
    }
    return d;
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  FaultPlan plan_;
  /// No draw can fault a message: every probability is at most 0.
  bool inert_;
  std::atomic<std::uint64_t> ordinal_{0};
};

}  // namespace waldo::cluster
