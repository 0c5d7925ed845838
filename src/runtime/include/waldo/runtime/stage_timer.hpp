// Lightweight per-stage wall-clock and item counters. Pipeline stages
// (collection, clustering, training, cross-validation) record into the
// process-wide timer; benches and the CLI print the report to show where
// the time went and how parallelism changed it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace waldo::runtime {

class StageTimer {
 public:
  struct Stage {
    double seconds = 0.0;      ///< accumulated wall-clock
    std::uint64_t calls = 0;   ///< number of recordings
    std::uint64_t items = 0;   ///< accumulated work items (stage-defined)
  };

  /// RAII recorder: accumulates the scope's wall-clock into `name` on
  /// destruction. Move-only.
  class Scope {
   public:
    Scope(StageTimer& timer, std::string name, std::uint64_t items)
        : timer_(&timer),
          name_(std::move(name)),
          items_(items),
          start_(std::chrono::steady_clock::now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&& other) noexcept
        : timer_(other.timer_),
          name_(std::move(other.name_)),
          items_(other.items_),
          start_(other.start_) {
      other.timer_ = nullptr;
    }
    ~Scope() {
      if (timer_ == nullptr) return;
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start_;
      timer_->record(name_, elapsed.count(), items_);
    }

   private:
    StageTimer* timer_;
    std::string name_;
    std::uint64_t items_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Times the enclosing scope into stage `name`.
  [[nodiscard]] Scope scope(std::string name, std::uint64_t items = 0) {
    return Scope(*this, std::move(name), items);
  }

  /// Direct accumulation (thread-safe).
  void record(const std::string& name, double seconds,
              std::uint64_t items = 0);

  /// Snapshot of every stage recorded so far.
  [[nodiscard]] std::map<std::string, Stage> stages() const;

  /// Fixed-width human-readable table, one row per stage; empty string
  /// when nothing was recorded.
  [[nodiscard]] std::string report() const;

  /// The process-wide timer the pipeline records into.
  [[nodiscard]] static StageTimer& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Stage> stages_;
};

}  // namespace waldo::runtime
