// Process-wide totals of observability data lost on the way out.
//
// Every simulated machine adds its journal's dropped records and its live
// plane's unwritten snapshot rows here once, when it flushes
// (api::Observers::flush); the bench report exports the totals as
// `obs_drops` in its aio-bench-v1 JSON.  `published` stays false while no
// machine carried a journal or live plane, so env-unset reports stay
// byte-identical.  Atomics, because machines flush from the bench
// replication threads (AIO_BENCH_THREADS > 1).
#pragma once

#include <atomic>
#include <cstdint>

namespace aio::obs {

struct DropTotals {
  std::atomic<std::uint64_t> journal{0};    ///< journal records over max_records
  std::atomic<std::uint64_t> live_rows{0};  ///< live snapshot rows that failed to write
  std::atomic<bool> published{false};
};

inline DropTotals& drop_totals() {
  static DropTotals totals;
  return totals;
}

}  // namespace aio::obs
