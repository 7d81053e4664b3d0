#include "obs/live.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "obs/env.hpp"
#include "stats/summary.hpp"

namespace aio::obs {

namespace {

constexpr double kEwmaTau_s = 2.0;     // time constant of the load/service EWMAs
constexpr std::size_t kRunWindow = 64;  // recent-runs ring for windowed CoV

std::size_t wrap(std::int64_t s, std::int64_t n) {
  return static_cast<std::size_t>(((s % n) + n) % n);
}

/// Appends `v` to a ring of `cap` entries, overwriting the oldest (at `next`) once full.
template <class T>
void ring_push(std::vector<T>& ring, std::size_t& next, std::size_t cap, const T& v) {
  if (ring.size() < cap) return ring.push_back(v);
  ring[next] = v;
  next = (next + 1) % cap;
}

}  // namespace

LivePlane::LivePlane(Config config) : config_(std::move(config)) {
  slots_.assign(kWindowSlots, LiveWait{});
  run_ring_.reserve(kRunWindow);
  flight_.reserve(config_.flight_records);
  if (!config_.snapshot_path.empty()) {
    snap_ = std::fopen(config_.snapshot_path.c_str(), "w");
    if (!snap_)
      std::fprintf(stderr, "aio: cannot open AIO_LIVE snapshot path %s\n",
                   config_.snapshot_path.c_str());
  }
}

LivePlane::~LivePlane() { flush(); }

std::unique_ptr<LivePlane> LivePlane::from_env(int slot) {
  const EnvSink live = env_sink("AIO_LIVE");
  const EnvSink flight = env_sink("AIO_FLIGHT", /*needs_path=*/true);
  if (!live.on && !flight.on) return nullptr;
  Config cfg;
  if (!live.path.empty()) cfg.snapshot_path = numbered_path(live.path, slot);
  // The ring only earns its copy-per-record when there is somewhere to dump
  // it: without AIO_FLIGHT the recorder stays disarmed.
  if (flight.on)
    cfg.flight_path = numbered_path(flight.path, slot);
  else
    cfg.flight_records = 0;
  return std::make_unique<LivePlane>(std::move(cfg));
}

void LivePlane::ensure_ost(std::uint32_t id) {
  if (id >= osts_.size()) osts_.resize(static_cast<std::size_t>(id) + 1);
}

void LivePlane::Ewma::add(double v, double at) {
  if (t < 0.0) {
    value = v;
  } else if (at > t) {  // event cascades at one sim time skip the exp
    value = v + (value - v) * std::exp(-(at - t) / kEwmaTau_s);
  }
  t = at;
}

LiveWait& LivePlane::slot_at(double t) {
  const auto idx = static_cast<std::int64_t>(std::floor(t / kWindowSlot_s));
  constexpr auto n = static_cast<std::int64_t>(kWindowSlots);
  if (cur_slot_ == INT64_MIN) {
    cur_slot_ = idx;
  } else if (idx > cur_slot_) {
    if (idx - cur_slot_ >= n) {
      std::fill(slots_.begin(), slots_.end(), LiveWait{});
    } else {
      for (std::int64_t s = cur_slot_ + 1; s <= idx; ++s) slots_[wrap(s, n)] = LiveWait{};
    }
    cur_slot_ = idx;
  } else if (idx < cur_slot_) {
    // A record behind the window head (clock skew across merged sources):
    // fold into its own slot while that slot is still live, else the oldest.
    const std::int64_t oldest = cur_slot_ - n + 1;
    return slots_[wrap(std::max(idx, oldest), n)];
  }
  return slots_[wrap(cur_slot_, n)];
}

void LivePlane::ingest(const Record& r) {
  if (r.t > now_) now_ = r.t;

  if (config_.flight_records > 0) {
    ring_push(flight_, flight_next_, config_.flight_records, r);
    ++flight_total_;
  }

  fold_.ingest(r);
  switch (r.kind) {
    case Rec::kRunBegin:
      if (r.u2 > 0) ensure_ost(r.u2 - 1);
      break;
    case Rec::kRunMark:
      if (static_cast<Mark>(r.a) != Mark::kComplete) break;
      ++runs_completed_;
      if (const double t_open = fold_.run().t_open; t_open >= 0.0) {
        const double rt = r.t - t_open;  // IoResult::io_seconds
        run_hist_.add(rt);
        ring_push(run_ring_, run_ring_next_, kRunWindow, rt);
      }
      break;
    case Rec::kFileMap:
      ensure_ost(r.u1);
      break;
    case Rec::kWriterEnd:
      on_writer_end(r);
      break;
    case Rec::kOstState:
      ensure_ost(r.id);
      osts_[r.id].load.add(std::max(r.v1, r.v2), r.t);
      return;  // leaves fresh_ alone (snapshot_tick)
    case Rec::kStealComplete:
      if (const Fold::Grant* g = fold_.grant(r.id); g && g->grant_t >= 0.0) {
        // No-steal counterfactual: the stolen writer would have drained
        // behind queue_depth writers at the source file's service time —
        // the live EWMA standing in for the analyzer's end-of-run mean.
        const double svc = g->source < file_svc_.size() ? file_svc_[g->source].get() : 0.0;
        ++steals_.completed;
        steals_.est_saved_s += (g->grant_t + g->queue_depth * svc) - r.t;
      }
      break;
    default:
      break;
  }
  fresh_ = true;
}

void LivePlane::on_writer_end(const Record& r) {
  const Fold::Writer* w = fold_.writer(r.id);
  if (!w || w->start_t < 0.0) return;

  const double dur = r.t - w->start_t;
  ++svc_count_;
  svc_sum_ += dur;
  // Service EWMA of the OST the write landed on (straggler numerator) and of
  // the file written (the steal counterfactual's per-source service rate).
  if (const std::uint32_t ost = fold_.ost_of(r.u0); ost < osts_.size()) {
    OstState& o = osts_[ost];
    o.svc.add(dur, r.t);
    ++o.writes;
  }
  if (r.u0 >= file_svc_.size()) file_svc_.resize(static_cast<std::size_t>(r.u0) + 1);
  file_svc_[r.u0].add(dur, r.t);

  LiveWait& win = slot_at(r.t);
  ++win.writers;
  ++cum_.writers;
  if (const std::optional<WaitSplit> split = fold_.wait(*w)) {
    win += *split;
    cum_ += *split;
  }
}

double LivePlane::straggler_score(std::uint32_t ost) const {
  if (ost >= osts_.size()) return 0.0;
  const OstState& o = osts_[ost];
  double score = o.load.value;
  if (svc_count_ > 0 && o.svc.t >= 0.0) {
    const double fleet = svc_sum_ / static_cast<double>(svc_count_);
    if (fleet > 0.0) score += std::max(0.0, o.svc.value / fleet - 1.0);
  }
  return score;
}

LiveWait LivePlane::window() const {
  LiveWait sum;
  for (const LiveWait& s : slots_) {
    sum += s;
    sum.writers += s.writers;
  }
  return sum;
}

LiveRunStats LivePlane::run_stats() const {
  stats::Summary ring;  // the analyzer's exact Welford, over the recent runs
  ring.add(run_ring_);
  return LiveRunStats{run_hist_.count(), ring.mean(), ring.mean() > 0.0 ? ring.cv() : 0.0,
                      run_hist_.quantile(0.99)};
}

LiveView LivePlane::view(std::size_t top_k) const {
  LiveView v;
  v.runs = runs_completed_;
  v.window = window();
  v.cumulative = cum_;
  v.run_time = run_stats();
  v.steals = steals_;
  v.stragglers.reserve(osts_.size());
  for (std::uint32_t i = 0; i < osts_.size(); ++i) {
    const OstState& o = osts_[i];
    v.stragglers.push_back(
        LiveOst{i, o.load.get(), o.svc.get(), straggler_score(i), o.writes});
  }
  // Highest score first; ties break on the lower OST id so the ranking is
  // deterministic (bitwise-stable snapshots depend on it).
  std::sort(v.stragglers.begin(), v.stragglers.end(), [](const LiveOst& a, const LiveOst& b) {
    return a.score != b.score ? a.score > b.score : a.ost < b.ost;
  });
  if (v.stragglers.size() > top_k) v.stragglers.resize(top_k);
  return v;
}

Json LivePlane::wait_json(const LiveWait& w) {
  Json j = Json::object();
  j.set("mds_s", w.mds_s);
  j.set("internal_s", w.internal_s);
  j.set("external_s", w.external_s);
  j.set("network_s", w.network_s);
  j.set("total_s", w.total_s);
  j.set("writers", static_cast<double>(w.writers));
  return j;
}

Json LivePlane::snapshot_json(double now, bool final) const {
  const LiveView v = view();
  Json row = Json::object();
  row.set("schema", "aio-live-v1");
  if (final) row.set("final", true);
  row.set("t", now);
  row.set("runs", static_cast<double>(v.runs));
  row.set("window", wait_json(v.window));
  row.set("cumulative", wait_json(v.cumulative));
  Json rt = Json::object();
  rt.set("count", static_cast<double>(v.run_time.count));
  rt.set("mean_s", v.run_time.mean_s);
  rt.set("cov", v.run_time.cov);
  rt.set("p99_s", v.run_time.p99_s);
  row.set("run_time", std::move(rt));
  Json st = Json::object();
  st.set("completed", static_cast<double>(v.steals.completed));
  st.set("est_saved_s", v.steals.est_saved_s);
  row.set("steals", std::move(st));
  Json mds = Json::object();
  mds.set("ops", static_cast<double>(fold_.mds_total().ops));
  mds.set("service_s", fold_.mds_total().service_s);
  // A real tier: break the same totals out per server so a live consumer
  // can see placement skew as it develops.
  if (fold_.n_mds() > 1) mds.set("servers", fold_.mds_json());
  row.set("mds", std::move(mds));
  Json stragglers = Json::array();
  for (const LiveOst& o : v.stragglers) {
    Json oj = Json::object();
    oj.set("ost", o.ost);
    oj.set("score", o.score);
    oj.set("load_ewma", o.load_ewma);
    oj.set("service_ewma_s", o.service_ewma_s);
    oj.set("writes", static_cast<double>(o.writes));
    stragglers.push(std::move(oj));
  }
  row.set("stragglers", std::move(stragglers));
  // Mirror summary.attribution from the offline report exactly — the CI
  // consistency gate compares these keys against aio_report's output.
  if (final) row.set("attribution", attribution_json(cum_));
  return row;
}

void LivePlane::snapshot_tick(double now) {
  if (!snap_ || !fresh_) return;
  fresh_ = false;
  const std::string row = snapshot_json(now).dump();
  if (std::fputs(row.c_str(), snap_) < 0 || std::fputc('\n', snap_) == EOF) {
    ++rows_dropped_;
    return;
  }
  // Flush per row: a crashed or killed run keeps every completed row.
  std::fflush(snap_);
  ++rows_;
}

void LivePlane::flush() {
  if (flushed_) return;
  flushed_ = true;
  if (!snap_) {
    if (!config_.snapshot_path.empty()) ++rows_dropped_;  // the open itself failed
    return;
  }
  const std::string row = snapshot_json(now_, /*final=*/true).dump();
  if (std::fputs(row.c_str(), snap_) >= 0 && std::fputc('\n', snap_) != EOF)
    ++rows_;
  else
    ++rows_dropped_;
  std::fclose(snap_);
  snap_ = nullptr;
}

bool LivePlane::dump_flight(const std::string& path) const {
  if (!flight_enabled() || path.empty()) return false;
  const std::size_t n = flight_.size();
  Journal j(Journal::Config{std::string(), n + 1});
  j.reserve(n);
  // Oldest record first: once the ring has wrapped, flight_next_ points at
  // the record about to be overwritten, i.e. the oldest retained one.
  const std::size_t start = n == config_.flight_records ? flight_next_ : 0;
  std::uint32_t runs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& rec = flight_[(start + i) % n];
    if (rec.kind == Rec::kRunBegin) ++runs;
    j.append(rec);
  }
  for (std::uint32_t i = 0; i < runs; ++i) (void)j.begin_run();
  return j.write(path);
}

}  // namespace aio::obs
