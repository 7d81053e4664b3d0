// 4-ary min-heap primitives over a flat vector.
//
// A 4-ary heap halves the tree depth of a binary heap and keeps parent and
// children within one or two cache lines for small nodes, which measurably
// beats std::priority_queue on the engine's schedule/pop path.  These are
// free functions over a caller-owned vector (like std::push_heap /
// std::pop_heap) so the engine can keep its node layout POD-small and
// iterate the raw vector when rebuilding.
//
// `before(a, b)` must be a strict weak ordering; the element for which
// `before` holds against every other is at index 0.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace aio::sim {

template <class T, class Before>
void dheap_push(std::vector<T>& heap, T node, Before before) {
  // Hole insertion: shift ancestors down into the hole instead of swapping
  // at every level (one move per level instead of three).
  std::size_t i = heap.size();
  heap.push_back(std::move(node));
  T value = std::move(heap[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(value, heap[parent])) break;
    heap[i] = std::move(heap[parent]);
    i = parent;
  }
  heap[i] = std::move(value);
}

/// Places `value` into the hole at index `i` and sifts it down, hole-style.
/// With i = 0 this replaces the minimum in one sift (a pop plus a push
/// without the second sift).
template <class T, class Before>
void dheap_sift_down(std::vector<T>& heap, std::size_t i, T value, Before before) {
  const std::size_t size = heap.size();
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= size) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < size ? first + 4 : size;
    for (std::size_t c = first + 1; c < end; ++c)
      if (before(heap[c], heap[best])) best = c;
    if (!before(heap[best], value)) break;
    heap[i] = std::move(heap[best]);
    i = best;
  }
  heap[i] = std::move(value);
}

/// Removes and returns the minimum.  Precondition: !heap.empty().
template <class T, class Before>
T dheap_pop(std::vector<T>& heap, Before before) {
  T top = std::move(heap.front());
  T last = std::move(heap.back());
  heap.pop_back();
  if (!heap.empty()) dheap_sift_down(heap, 0, std::move(last), before);
  return top;
}

/// Restores the heap property over arbitrary contents (Floyd heapify),
/// used after compacting lazily-deleted nodes out of the vector.
template <class T, class Before>
void dheap_make(std::vector<T>& heap, Before before) {
  const std::size_t size = heap.size();
  if (size < 2) return;
  for (std::size_t start = ((size - 2) >> 2) + 1; start-- > 0;)
    dheap_sift_down(heap, start, std::move(heap[start]), before);
}

}  // namespace aio::sim
