// Global operator new counter for the traced run (alloc_counter.cpp holds the
// replaced operators, in their own translation unit so the compiler never
// inlines a free() into a caller next to the matching new).
#pragma once

#include <cstdint>

namespace perf {

/// Counts operator new calls while armed; off at start.
void arm_alloc_counter(bool on);
/// Allocations counted so far.
[[nodiscard]] std::uint64_t allocs_counted();

}  // namespace perf
