// Periodic probe sampler.
//
// The sampler owns a list of probes — closures that read one scalar out of
// the live simulation (cache occupancy of OST 7, MDS backlog, aggregate
// drain bandwidth...) — and on every `tick(now)` appends each probe's value
// to its registry Series (the `AIO_METRICS` document).
//
// The sampler is engine-agnostic: it never schedules anything itself.  The
// host (bench harness, api::Simulation, a test) arms a recurring *daemon*
// event that calls `tick(engine.now())`, so sampling keeps pure-simulation
// runs deterministic — daemon events never keep `Engine::run()` alive, and
// when no sampler is installed no events are scheduled at all.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace aio::obs {

class Sampler {
 public:
  /// Probe: given the current time, returns the sampled value.
  using Probe = std::function<double(double now)>;

  /// `period` is advisory — it is what hosts use to schedule ticks; the
  /// sampler itself accepts any cadence.
  Sampler(Registry& registry, double period_s) : registry_(registry), period_(period_s) {}

  /// Registers a probe feeding series `name`.
  void add_probe(const std::string& name, Probe probe);

  /// Samples every probe at time `now`.
  void tick(double now);

  [[nodiscard]] double period() const { return period_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::size_t probes() const { return probes_.size(); }

 private:
  struct Entry {
    Series* series;
    Probe probe;
  };

  Registry& registry_;
  double period_;
  std::vector<Entry> probes_;
  std::uint64_t ticks_ = 0;
};

}  // namespace aio::obs
