// The data-parallel loop over an index range. Two stages run on it:
// per-locality training (core::ModelConstructor) and per-reading
// collection (campaign::collect_channel).
//
// Guarantees (the concurrency contract, see docs/CONCURRENCY.md):
//  - `body(lane, i)` is invoked exactly once for every i in [0, count)
//    unless a body throws, in which case remaining indices may be skipped
//    and the first exception is rethrown on the calling thread.
//  - Each invocation sees a distinct index; writes to index-owned slots
//    need no synchronisation.
//  - `threads <= 1` (after resolve_threads) runs the plain serial loop on
//    the calling thread — byte-for-byte today's single-threaded behaviour.
//  - Nested calls (a body that itself calls parallel_for_lanes) run inline
//    serially instead of re-entering the pool, so nesting is always safe.
#pragma once

#include <cstddef>
#include <functional>

#include "waldo/runtime/thread_pool.hpp"

namespace waldo::runtime {

/// Number of lanes parallel_for_lanes will use for a (count, threads)
/// request: callers size per-lane scratch (workspaces, arenas) with this
/// before launching. Always >= 1.
[[nodiscard]] std::size_t parallel_lane_count(std::size_t count,
                                              unsigned threads) noexcept;

/// Runs body(lane, 0) ... body(lane, count - 1), distributing indices over
/// at most `threads` executors (0 = auto), with lane <
/// parallel_lane_count(count, threads). The calling thread participates as
/// lane 0, so a pool of size N serves N + 1 lanes. Each lane value is owned
/// by exactly one executor for the whole call, so lane-indexed scratch
/// buffers need no synchronisation — the workspace-ownership pattern of
/// docs/CONCURRENCY.md. The serial path (1 lane) runs in index order on the
/// calling thread.
void parallel_for_lanes(
    std::size_t count, unsigned threads,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace waldo::runtime
