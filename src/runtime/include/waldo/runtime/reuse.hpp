// Buffers reused from one call to the next. A serving rebuild runs over a
// channel that grows by a few readings between calls; if each call sized
// its buffers afresh, every call would allocate (and, above glibc's mmap
// threshold, page-fault) its whole working set again.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace waldo::runtime {

/// Resizes `v` to `n` elements, keeping its storage when that is large
/// enough and at least doubling it when not, so a buffer whose size creeps
/// up reallocates O(log n) times. New elements are value-initialized;
/// existing ones keep their values.
template <typename T>
void resize_reused(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) v.reserve(std::max(n, 2 * v.capacity()));
  v.resize(n);
}

}  // namespace waldo::runtime
