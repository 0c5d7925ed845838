// Span tracing for the serving benchmark.
//
// Spans are recorded from the benchmark's own code around calls into the
// system's public functions: one root span per client operation and one
// child span per Transport::send (the loopback is synchronous, so a send
// made while handling another send is its child on the same thread).
// Every thread appends to its own in-memory log; logs are read only after
// the load threads have been joined.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "waldo/cluster/transport.hpp"

namespace serving {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same thread's log, -1 = root
  std::uint32_t node = 0;    ///< target node of a send; 0 otherwise
  std::uint64_t request_id = 0;

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
};

/// Self time of every span in one thread's log: its duration minus the
/// part of its interval that its direct children cover (overlapping
/// children are counted once). Spans must be in open order, so a child
/// always follows its parent.
[[nodiscard]] std::vector<std::uint64_t> self_times(std::span<const Span> spans);

/// Process-wide span recorder. Recording is off until enable(true); while
/// off, only children of an already recorded span are stored.
class Tracer {
 public:
  struct ThreadLog {
    std::vector<Span> spans;
    std::vector<std::int32_t> stack;  ///< open spans, innermost last
    std::uint64_t request_id = 0;     ///< id stamped on new spans
  };

  static Tracer& instance();

  void enable(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// The calling thread's log (registered on first use).
  ThreadLog& local();

  /// Opens a span under the thread's innermost open span; returns its
  /// index, or -1 when recording is off and no span is open on this
  /// thread (children of a recorded span are always recorded).
  std::int32_t open(const char* name, std::uint32_t node = 0);
  void close(std::int32_t index);

  /// Appends a finished root span (times from now_ns()) when recording is
  /// on — for work that starts and ends on different threads.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);

  /// Every thread log. Call only while no thread is recording.
  [[nodiscard]] std::vector<const ThreadLog*> logs() const;

  /// Writes up to `max_spans` spans as CSV
  /// (thread,index,parent,name,node,request_id,start_ns,end_ns).
  bool write_csv(const std::string& path, std::size_t max_spans) const;

 private:
  Tracer();

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex logs_mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span; a no-op when recording is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint32_t node = 0)
      : index_(Tracer::instance().open(name, node)) {}
  ~ScopedSpan() { Tracer::instance().close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_;
};

/// The envelope verb ("wsnp", "repl", "pull", ...) read from a CLSTR/1
/// header without decoding the envelope; "?" when the header is not one.
[[nodiscard]] const char* envelope_verb(const std::string& envelope) noexcept;

/// Node the calling thread's latest "wsnp" send through a TimingTransport
/// went to.
[[nodiscard]] waldo::cluster::NodeId last_wsnp_target() noexcept;

/// Transport decorator that records one span per send, named after the
/// envelope verb and tagged with the target node. It also remembers the
/// target of the calling thread's latest "wsnp" send (last_wsnp_target).
class TimingTransport final : public waldo::cluster::Transport {
 public:
  explicit TimingTransport(waldo::cluster::Transport& inner) : inner_(&inner) {}

  std::string send(waldo::cluster::NodeId to,
                   const std::string& envelope) override;

 private:
  waldo::cluster::Transport* inner_;
};

}  // namespace serving
