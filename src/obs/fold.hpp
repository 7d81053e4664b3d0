// The one fold of the journal's record stream into attribution state, read
// by the offline analyzer (obs/analysis.hpp) and the live plane
// (obs/live.hpp): the run's marks and file -> OST placement; one slot per
// writer, with its queue interval's load integral frozen at its signal;
// each OST's external-load step (max of the net and disk background
// fractions), integrated since the run's open mark; steal grants by
// grant_seq; per-MDS tallies; and `wait`, the one wait partition.
//
// Records attach to the last kRunBegin; those before the first reach only
// the global state (OST load, MDS tallies).  The queue integral adds the
// load steps segment by segment, in stream order, as a signal or the next
// step closes each: the analyzer's integration, to the bit.
//
// `ingest` indexes slots by the engine's ids directly.  A journal read from
// a file is untrusted, so `replay` maps the ids each run opens to dense
// slots through one sort, which also gives rank order: no record field sizes
// an allocation.  Replay alone keeps what only the analyzer reads.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/journal.hpp"
#include "obs/json.hpp"

namespace aio::obs {

/// A writer's wait, run begin -> its first data byte, split four ways, or a
/// sum of such splits.  The components add up to `total_s`.
struct WaitSplit {
  double mds_s = 0.0;       ///< the shared open phase
  double internal_s = 0.0;  ///< queued behind its own group's earlier writers
  double external_s = 0.0;  ///< its home OST serving background load meanwhile
  double network_s = 0.0;   ///< the write signal's transfer
  double total_s = 0.0;
  WaitSplit& operator+=(const WaitSplit& o) {
    mds_s += o.mds_s;
    internal_s += o.internal_s;
    external_s += o.external_s;
    network_s += o.network_s;
    total_s += o.total_s;
    return *this;
  }
};

/// The report's `summary.attribution` block (and the live plane's final
/// row): each component, its share of the total and `attributed_frac`.
[[nodiscard]] Json attribution_json(const WaitSplit& w);

class Fold {
 public:
  /// The current run.  Times < 0 were not observed.
  struct Run {
    std::uint32_t run = 0;
    std::uint32_t n_writers = 0, n_files = 0, n_osts = 0;
    double t_begin = 0.0, t_open = -1.0, t_data_done = -1.0, t_complete = -1.0;
    double steals = 0.0, grants = 0.0;
    std::uint64_t mds_ops = 0;
    double mds_service_s = 0.0;
    // Phase-scoped MDS service: before the kOpenDone mark (the open storm)
    // and after the kDataDone mark (close traffic inside the reported
    // interval), the two ends the critical path cares about.
    double mds_open_s = 0.0;
    double mds_close_s = 0.0;
  };
  /// One writer of the current run: what the wait partition reads.  Times
  /// < 0 were not observed, here and in the other slots.
  struct Writer {
    double signal_t = -1.0;
    double start_t = -1.0;
    double queue_ext_s = 0.0;  ///< home-OST load integral over [t_open, signal_t]
  };
  /// The rest of a writer's records, which only `replay` keeps.
  struct WriterDetail {
    double end_t = -1.0;
    double bytes = 0.0;
    std::uint32_t target = 0;  ///< file written
    std::uint32_t origin = 0;  ///< the writer's own group, whose file is its home
    std::uint32_t grant_seq = 0;
    bool adaptive = false;     ///< the signal was a steal redirect
  };
  /// One steal chain of the current run, keyed by grant_seq.
  struct Grant {
    double grant_t = -1.0;
    double complete_t = -1.0;
    double queue_depth = 0.0;  ///< writers queued at the source at grant time
    std::uint32_t source = 0;  ///< source group
  };
  /// One metadata server's dispatches, or the whole tier's.
  struct Mds {
    std::uint64_t ops = 0;    ///< requests dispatched (a batch counts once)
    std::uint64_t items = 0;  ///< operations carried (a batch counts its size)
    double service_s = 0.0;
    std::uint32_t peak_queue = 0;  ///< deepest backlog behind a dispatch
    void add(const Record& r) {
      ++ops;
      items += 1 + static_cast<std::uint64_t>(r.u1);
      service_s += r.v0;
      peak_queue = std::max(peak_queue, r.u0);
    }
  };

  /// Folds one record, indexing slots by the record's ids.
  void ingest(const Record& r);

  /// Folds a whole untrusted stream into a fresh fold with dense slots,
  /// calling `on_close` as each run closes (next kRunBegin, end of stream).
  void replay(std::span<const Record> stream, const std::function<void()>& on_close);

  [[nodiscard]] const Run& run() const { return run_; }
  /// The current run's writer slots; `replay` keeps them in rank order.
  [[nodiscard]] const std::vector<Writer>& writers() const { return writers_; }
  /// The rest of slot `slot`'s records (`replay` only).
  [[nodiscard]] const WriterDetail& detail(std::size_t slot) const { return details_[slot]; }
  [[nodiscard]] std::uint32_t writer_id(std::size_t slot) const { return id_of(kWriters, slot); }
  [[nodiscard]] const Writer* writer(std::uint32_t id) const { return find(writers_, kWriters, id); }
  /// The current run's steal chains; `replay` keeps them in grant_seq order.
  [[nodiscard]] const std::vector<Grant>& grants() const { return grants_; }
  [[nodiscard]] const Grant* grant(std::uint32_t seq) const { return find(grants_, kGrants, seq); }
  /// The OST `file` lives on in the current run (0 when unmapped).
  [[nodiscard]] std::uint32_t ost_of(std::uint32_t file) const {
    const std::uint32_t* ost = find(files_, kFiles, file);
    return ost ? *ost : 0;
  }

  /// The wait partition of `w`, a writer of the current run; nullopt
  /// before the run's open mark or the writer's signal.
  [[nodiscard]] std::optional<WaitSplit> wait(const Writer& w) const;

  /// OST `ost`'s load over [a, b] (from `on_close`), from its step at the
  /// current run's kRunBegin through the run's records: on a time-ordered
  /// stream, the whole stream's step function.
  [[nodiscard]] double load_integral(std::uint32_t ost, double a, double b) const;

  [[nodiscard]] const Mds& mds_total() const { return mds_total_; }
  [[nodiscard]] std::size_t n_mds() const { return mds_.size(); }
  /// `{"mds<id>": {ops, items, service_s, peak_queue}, ...}` in id order.
  [[nodiscard]] Json mds_json() const;
  /// Rises of an OST's cache-full flag (every OST starts empty).
  [[nodiscard]] std::uint64_t cache_full_crossings() const { return cache_full_crossings_; }

 private:
  /// The id spaces; run-scoped ones first (see `replay`).
  enum Space : std::size_t { kWriters, kGrants, kFiles, kOsts, kMds, kSpaces };
  struct Ost {
    double last_t = std::numeric_limits<double>::infinity();  ///< open segment start
    double ext = 0.0;       ///< the open segment's load
    double integral = 0.0;  ///< load closed into segments since t_open
    bool cache_full = false;
    /// The integral extended to `t` (>= the open segment's start).
    [[nodiscard]] double at(double t, double t_open) const {
      const double from = std::max(t_open, last_t);
      return t > from ? integral + (t - from) * ext : integral;
    }
    /// Closes the open segment at the kOstState `r` and opens its step.
    void step(const Record& r, double t_open) {
      integral = at(r.t, t_open);
      last_t = r.t;
      ext = std::max(r.v1, r.v2);
    }
  };

  /// The slot of `id` in `space`: the id itself, or under `replay` its rank
  /// among the ids indexed for the space (past the end when absent).
  [[nodiscard]] std::size_t slot(Space space, std::uint32_t id) const {
    return dense_ ? dense_slot(space, id) : id;
  }
  [[nodiscard]] std::size_t dense_slot(Space space, std::uint32_t id) const;
  [[nodiscard]] std::uint32_t id_of(Space space, std::size_t slot) const {
    return dense_ ? index_[space][slot] : static_cast<std::uint32_t>(slot);
  }
  /// The replay-only rest of writer `w`'s slot; nullptr under `ingest`.
  WriterDetail* detail_of(const Writer& w) {
    return dense_ ? &details_[static_cast<std::size_t>(&w - writers_.data())] : nullptr;
  }
  template <class T>
  T* at(std::vector<T>& v, Space space, std::uint32_t id) {
    if (space < kOsts && !in_run_) return nullptr;  // run-scoped, outside a run
    const std::size_t i = slot(space, id);
    if (i >= v.size()) {
      if (dense_) return nullptr;
      v.resize(i + 1);
    }
    return &v[i];
  }
  template <class T>
  const T* find(const std::vector<T>& v, Space space, std::uint32_t id) const {
    const std::size_t i = slot(space, id);
    return i < v.size() ? &v[i] : nullptr;
  }
  /// The id space whose slot `r` opens under `replay`, and its id there;
  /// kSpaces for none.
  static std::pair<Space, std::uint32_t> key(const Record& r);
  /// Indexes the ids `stream` opens for spaces [first, last).
  void index(std::span<const Record> stream, Space first, Space last);

  bool dense_ = false;
  bool in_run_ = false;
  Run run_;
  std::vector<Writer> writers_;
  std::vector<WriterDetail> details_;  // `replay` only, by writer slot
  std::vector<Grant> grants_;
  std::vector<std::uint32_t> files_;  // file -> OST
  std::vector<Ost> osts_;
  std::vector<Mds> mds_;
  Mds mds_total_;
  std::uint64_t cache_full_crossings_ = 0;
  // `replay` only: each space's ids in order, the run's records and steps.
  std::array<std::vector<std::uint32_t>, kSpaces> index_;
  std::span<const Record> run_records_;
  std::vector<Ost> run_osts_;
};

// Inline: the live plane folds every record the engine emits.
inline void Fold::ingest(const Record& r) {
  switch (r.kind) {
    case Rec::kRunBegin:
      in_run_ = true;
      run_ = Run{.run = r.id, .n_writers = r.u0, .n_files = r.u1, .n_osts = r.u2, .t_begin = r.t};
      if (!dense_) {  // the engine's counts size the run's slots
        writers_.assign(r.u0, Writer{});
        files_.assign(r.u1, 0);
        grants_.clear();
      }
      break;
    case Rec::kRunMark:
      if (!in_run_) break;
      switch (static_cast<Mark>(r.a)) {
        case Mark::kOpenDone:
          run_.t_open = r.t;
          // Queue intervals are priced from the shared open boundary on.
          for (Ost& o : osts_) o.integral = 0.0;
          break;
        case Mark::kDataDone: run_.t_data_done = r.t; break;
        case Mark::kComplete:
          run_.t_complete = r.t;
          run_.steals = r.v0;
          run_.grants = r.v1;
          break;
      }
      break;
    case Rec::kFileMap:
      if (std::uint32_t* ost = at(files_, kFiles, r.u0)) *ost = r.u1;
      break;
    case Rec::kWriterSignal:
      if (Writer* w = at(writers_, kWriters, r.id)) {
        w->signal_t = r.t;
        // The queue interval [t_open, signal] is priced on the writer's home
        // OST; its integral is final now.
        const Ost* home = run_.t_open >= 0.0 ? find(osts_, kOsts, ost_of(r.u1)) : nullptr;
        w->queue_ext_s = home ? home->at(r.t, run_.t_open) : 0.0;
        if (WriterDetail* d = detail_of(*w)) {
          d->target = r.u0;
          d->origin = r.u1;
          d->grant_seq = r.u2;
          d->adaptive = r.a != 0;
        }
      }
      break;
    case Rec::kWriterStart:
      if (Writer* w = at(writers_, kWriters, r.id)) {
        w->start_t = r.t;
        if (WriterDetail* d = detail_of(*w)) d->bytes = r.v0;
      }
      break;
    case Rec::kWriterEnd:
      // Only replay keeps the end: the live plane reads it off the record.
      if (dense_)
        if (const Writer* w = at(writers_, kWriters, r.id)) detail_of(*w)->end_t = r.t;
      break;
    case Rec::kOstState:
      // Global, not run-scoped: the fluid state persists across runs.
      if (Ost* o = at(osts_, kOsts, r.id)) {
        o->step(r, run_.t_open);
        const bool full = r.a != 0;
        if (full && !o->cache_full) ++cache_full_crossings_;
        o->cache_full = full;
      }
      break;
    case Rec::kMdsOp:
      if (in_run_) {
        ++run_.mds_ops;
        run_.mds_service_s += r.v0;
        if (run_.t_open < 0.0)
          run_.mds_open_s += r.v0;
        else if (run_.t_data_done >= 0.0 && r.t >= run_.t_data_done)
          run_.mds_close_s += r.v0;
      }
      // Global too: a bench driving the tier directly, outside any run,
      // still gets its per-MDS tallies.
      mds_total_.add(r);
      if (Mds* m = at(mds_, kMds, r.id)) m->add(r);
      break;
    case Rec::kStealGrant:
      if (Grant* g = at(grants_, kGrants, r.id)) {
        g->grant_t = r.t;
        g->source = r.u0;
        g->queue_depth = r.v1;
      }
      break;
    case Rec::kStealComplete:
      if (Grant* g = at(grants_, kGrants, r.id)) {
        g->complete_t = r.t;
        g->source = r.u0;
      }
      break;
  }
}

}  // namespace aio::obs
