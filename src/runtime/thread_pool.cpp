#include "waldo/runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "waldo/runtime/parallel.hpp"

namespace waldo::runtime {

namespace {

thread_local bool t_on_worker_thread = false;

}  // namespace

unsigned hardware_threads() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned resolve_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("WALDO_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<unsigned>(parsed);
  }
  return hardware_threads();
}

ThreadPool::ThreadPool(unsigned num_threads) {
  workers_.reserve(std::max(1u, num_threads));
  for (unsigned t = 0; t < std::max(1u, num_threads); ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

bool ThreadPool::on_worker_thread() noexcept { return t_on_worker_thread; }

ThreadPool& ThreadPool::global() {
  // The submitting thread always executes alongside the workers, so the
  // pool itself needs one fewer thread than the hardware offers.
  static ThreadPool pool(std::max(1u, resolve_threads(0) - 1));
  return pool;
}

void ThreadPool::worker_loop() {
  t_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::size_t parallel_lane_count(std::size_t count, unsigned threads) noexcept {
  if (count == 0) return 1;
  const unsigned want = resolve_threads(threads);
  if (want <= 1 || count == 1 || ThreadPool::on_worker_thread()) return 1;
  return std::min<std::size_t>(count, want);
}

void parallel_for_lanes(
    std::size_t count, unsigned threads,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const unsigned want = resolve_threads(threads);
  if (want <= 1 || count == 1 || ThreadPool::on_worker_thread()) {
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }

  struct SharedState {
    std::atomic<std::size_t> next{0};
    std::size_t count = 0;
    std::size_t block = 1;
    std::atomic<bool> abandoned{false};  ///< a body threw: skip the rest
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::mutex mutex;
    std::condition_variable done;
    std::size_t active = 0;
    std::exception_ptr error;
  };
  // Shared, not stack-owned: a helper task may still be tearing down its
  // reference for a moment after the caller is released.
  auto state = std::make_shared<SharedState>();
  state->count = count;
  state->body = &body;

  // Executors claim blocks of consecutive indices, about 8 per lane, so
  // the shared counter is touched a few dozen times per call rather than
  // once per index, while a slow block still leaves others to balance.
  const auto drain = [](SharedState& s, std::size_t lane) {
    for (std::size_t first; (first = s.next.fetch_add(s.block)) < s.count;) {
      const std::size_t last = std::min(s.count, first + s.block);
      for (std::size_t i = first;
           i < last && !s.abandoned.load(std::memory_order_relaxed); ++i) {
        try {
          (*s.body)(lane, i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(s.mutex);
          if (!s.error) s.error = std::current_exception();
          s.abandoned.store(true, std::memory_order_relaxed);
        }
      }
    }
  };

  ThreadPool& pool = ThreadPool::global();
  const std::size_t lanes = std::min<std::size_t>(count, want);
  state->block = std::max<std::size_t>(1, count / (8 * lanes));
  const std::size_t helpers =
      std::min<std::size_t>(lanes, pool.size() + 1) - 1;
  // An explicit request larger than the pool (threads > hardware) is
  // honoured with ephemeral threads: oversubscription costs wall-clock,
  // never correctness, and lets tests drive N lanes on any host.
  const std::size_t extra = lanes - 1 - helpers;
  {
    const std::lock_guard<std::mutex> lock(state->mutex);
    state->active = helpers + extra;
  }
  // The caller is lane 0; helpers and ephemerals take 1..lanes-1. A lane
  // number is owned by its executor for the whole call — that is what lets
  // callers hand each lane its own scratch workspace.
  const auto run_and_retire = [state, drain](std::size_t lane) {
    drain(*state, lane);
    const std::lock_guard<std::mutex> lock(state->mutex);
    if (--state->active == 0) state->done.notify_all();
  };
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([run_and_retire, lane = h + 1] { run_and_retire(lane); });
  }
  std::vector<std::thread> ephemeral;
  ephemeral.reserve(extra);
  for (std::size_t e = 0; e < extra; ++e) {
    ephemeral.emplace_back([run_and_retire, lane = helpers + 1 + e] {
      t_on_worker_thread = true;
      run_and_retire(lane);
    });
  }

  drain(*state, 0);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&state] { return state->active == 0; });
    error = state->error;
  }
  for (std::thread& t : ephemeral) t.join();
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body) {
  parallel_for_lanes(count, threads,
                     [&body](std::size_t, std::size_t i) { body(i); });
}

}  // namespace waldo::runtime
