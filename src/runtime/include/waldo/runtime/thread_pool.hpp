// Fixed-size thread pool backing the pipeline's parallel stages. One
// process-wide pool (sized to the hardware, overridable with the
// WALDO_THREADS environment variable) is shared by every stage; callers
// never own threads themselves — they express data parallelism through
// parallel_for_lanes (parallel.hpp) and the pool schedules it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace waldo::runtime {

/// Number of hardware threads, never less than 1.
[[nodiscard]] unsigned hardware_threads() noexcept;

/// Resolves a user-facing `threads` knob: 0 means "auto" (all hardware
/// threads, or WALDO_THREADS when set); anything else is taken literally.
[[nodiscard]] unsigned resolve_threads(unsigned requested) noexcept;

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues a task. Tasks must not block waiting for other tasks in the
  /// same pool (parallel_for_lanes never does; it keeps the submitting
  /// thread as one of the executors and runs nested parallelism inline).
  void submit(std::function<void()> task);

  /// True when the calling thread is one of *any* pool's workers. Used by
  /// parallel_for_lanes to run nested parallel sections inline instead of
  /// deadlocking on a saturated pool.
  [[nodiscard]] static bool on_worker_thread() noexcept;

  /// The process-wide pool, created on first use with
  /// resolve_threads(0) - 1 workers (the caller of a parallel section is
  /// always the remaining executor).
  [[nodiscard]] static ThreadPool& global();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace waldo::runtime
