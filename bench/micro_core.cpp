// Micro-benchmarks for the core building blocks (google-benchmark).
//
// Establishes that the simulator substrate is fast enough for the
// paper-scale experiments: event-queue throughput, fluid-resource churn,
// OST write paths, index construction and merge, topology math,
// and raw protocol state-machine message handling.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/index/index.hpp"
#include "core/protocol/coordinator_fsm.hpp"
#include "core/protocol/subcoordinator_fsm.hpp"
#include "fs/fabric.hpp"
#include "fs/machine.hpp"
#include "fs/ost.hpp"
#include "micro_main.hpp"
#include "parallel.hpp"
#include "sim/engine.hpp"
#include "sim/fluid.hpp"

namespace {

using namespace aio;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (std::size_t i = 0; i < n; ++i)
      engine.schedule_at(static_cast<double>(i % 97), [] {});
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1024)->Arg(16384)->Arg(131072);

// BM_EngineScheduleRun with n fixed-delay events in flight beside the n queue
// events: one lane at the network latency, one at the OST op latency, both
// landing among the queue's times.
void BM_EngineFixedLane(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(1e-4 * static_cast<double>(i % 97), [] {});
      engine.schedule_fixed(i % 2 != 0 ? 8e-6 : 12e-3, [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n);
}
BENCHMARK(BM_EngineFixedLane)->Arg(16384);

// jaguar_224k's shape: its 672 identical groups run in lock-step, so the
// queue fills with same-instant batches.  Each of n timers fires at one
// instant, re-arms itself one period later and schedules one short-delay
// event; an iteration fires one batch of each.
void BM_EngineSameInstantBatch(benchmark::State& state) {
  struct Timer {
    sim::Engine* engine;
    void operator()() const {
      engine->schedule_after(1e-3, *this);
      engine->schedule_after(2e-6, [] {});
    }
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Engine engine;
  for (std::size_t i = 0; i < n; ++i) engine.schedule_at(1e-3, Timer{&engine});
  for (auto _ : state) benchmark::DoNotOptimize(engine.run(2 * n));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n);
}
BENCHMARK(BM_EngineSameInstantBatch)->Arg(672);

void BM_EngineCancelHeavy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::EventHandle> handles;
    handles.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      handles.push_back(engine.schedule_at(static_cast<double>(i), [] {}));
    for (std::size_t i = 0; i < n; i += 2) engine.cancel(handles[i]);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EngineCancelHeavy)->Arg(16384);

// The fabric broadcast pattern: n timers stay pending; each iteration
// re-times one block of them later (one congestion wave over 672 OSTs),
// then fires the head, whose callback re-arms its own timer.
void BM_EngineRearm(benchmark::State& state) {
  constexpr std::size_t kWave = 672;
  struct Timers {
    sim::Engine engine;
    std::vector<sim::EventHandle> handle;
    std::vector<double> when;
    void arm(std::size_t i, double t) {
      when[i] = t;
      handle[i] = engine.schedule_at(t, [this, i] { arm(i, engine.now() + 1.0); });
    }
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  Timers timers;
  timers.handle.resize(n);
  timers.when.resize(n);
  for (std::size_t i = 0; i < n; ++i) timers.arm(i, static_cast<double>(i) / static_cast<double>(n));
  std::size_t next = 0;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kWave; ++k, next = (next + 1) % n) {
      timers.when[next] += 0.25;
      timers.engine.rearm(timers.handle[next], timers.when[next], false);
    }
    benchmark::DoNotOptimize(timers.engine.run(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * (kWave + 1));
}
BENCHMARK(BM_EngineRearm)->Arg(16384);

void BM_FluidResourceChurn(benchmark::State& state) {
  const auto streams = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    sim::FluidResource r(engine, {1e9, 0.0, 0.01}, 1);
    for (std::size_t i = 0; i < streams; ++i)
      r.start(0, 1e6 * static_cast<double>(1 + i % 7), nullptr);
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * streams);
}
BENCHMARK(BM_FluidResourceChurn)
    ->Arg(1)
    ->Arg(32)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);

void BM_FluidStartAbort(benchmark::State& state) {
  const auto streams = static_cast<std::size_t>(state.range(0));
  std::vector<sim::FluidResource::StreamId> ids;
  ids.reserve(streams);
  for (auto _ : state) {
    sim::Engine engine;
    sim::FluidResource r(engine, {1e9, 0.0, 0.01}, 1);
    ids.clear();
    for (std::size_t i = 0; i < streams; ++i)
      ids.push_back(r.start(0, 1e6 * static_cast<double>(1 + i % 7), nullptr));
    for (std::size_t i = 0; i < streams; i += 2) r.abort(ids[i]);
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * streams);
}
BENCHMARK(BM_FluidStartAbort)->Arg(256)->Arg(4096);

// Harness replication fan-out: n independent fluid simulations through
// bench::run_samples, which starts and joins its threads in each call.
// Thread counts beyond the host's core count exercise correctness rather
// than wall-clock scaling.
void BM_HarnessRunSamples(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto out = bench::run_samples(
        units,
        [](std::size_t u) {
          sim::Engine engine;
          sim::FluidResource r(engine, {1e9, 0.0, 0.01}, 1);
          for (std::size_t i = 0; i < 512; ++i)
            r.start(0, 1e6 * static_cast<double>(1 + (i + u) % 7), nullptr);
          engine.run();
          return engine.now();
        },
        threads);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * units);
}
BENCHMARK(BM_HarnessRunSamples)->Args({8, 1})->Args({8, 2})->Args({8, 4});

void BM_OstConcurrentDurable(benchmark::State& state) {
  const auto writers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    fs::Ost ost(engine, {});
    for (std::size_t i = 0; i < writers; ++i) ost.write(8e6, fs::Ost::Mode::Durable, nullptr);
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * writers);
}
BENCHMARK(BM_OstConcurrentDurable)->Arg(4)->Arg(32)->Arg(128);

// One congestion burst at full scale: n OSTs with Jaguar's ingest behind
// Jaguar's fabric, each handed one write at the same instant, run to
// completion.  The burst's activity transitions all land on one instant
// (twice: on the way up and on the way down), so this times the fabric
// governor's once-per-instant flush.
void BM_FabricBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fs::FsConfig fs_config = fs::jaguar().fs;
  for (auto _ : state) {
    sim::Engine engine;
    fs::FabricGovernor fabric(engine, fs_config.fabric_bw);
    std::vector<std::unique_ptr<fs::Ost>> osts;
    osts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      osts.push_back(std::make_unique<fs::Ost>(engine, fs_config.ost, static_cast<int>(i)));
      fabric.attach(*osts.back());
    }
    for (auto& ost : osts) ost->write(64e6, fs::Ost::Mode::Cached, nullptr);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_FabricBurst)->Arg(672);

core::LocalIndex make_index(int blocks) {
  core::LocalIndex idx;
  idx.writer = 1;
  idx.file = 0;
  for (int b = 0; b < blocks; ++b) {
    core::BlockRecord rec;
    rec.writer = 1;
    rec.var_id = static_cast<std::uint32_t>(b);
    rec.file_offset = static_cast<std::uint64_t>(b) * 1024;
    rec.length = 1024;
    rec.global_dims = {4096, 4096, 4096};
    rec.offsets = {0, 0, static_cast<std::uint64_t>(b)};
    rec.counts = {64, 64, 64};
    idx.blocks.push_back(std::move(rec));
  }
  return idx;
}

void BM_FileIndexMergeFinalize(benchmark::State& state) {
  const auto writers = static_cast<std::size_t>(state.range(0));
  std::vector<core::LocalIndex> locals;
  for (std::size_t w = 0; w < writers; ++w) {
    core::LocalIndex idx = make_index(8);
    idx.writer = static_cast<core::Rank>(w);
    locals.push_back(std::move(idx));
  }
  for (auto _ : state) {
    core::FileIndex fi(0);
    for (const auto& l : locals) fi.merge(l);
    fi.finalize();
    benchmark::DoNotOptimize(fi.blocks().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * writers);
}
BENCHMARK(BM_FileIndexMergeFinalize)->Arg(32)->Arg(512);

void BM_GlobalIndexQuery(benchmark::State& state) {
  core::GlobalIndex gi;
  for (int f = 0; f < 64; ++f) {
    core::FileIndex fi(f);
    for (int w = 0; w < 32; ++w) {
      core::LocalIndex idx = make_index(8);
      idx.writer = f * 32 + w;
      idx.file = f;
      fi.merge(idx);
    }
    fi.finalize();
    gi.add(std::move(fi));
  }
  const std::vector<std::uint64_t> off{0, 0, 0}, cnt{64, 64, 64};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gi.query(3, off, cnt));
  }
}
BENCHMARK(BM_GlobalIndexQuery);

void BM_TopologyGroupOf(benchmark::State& state) {
  const core::Topology topo(224160, 672);
  core::Rank r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.group_of(r));
    r = (r + 7919) % 224160;
  }
}
BENCHMARK(BM_TopologyGroupOf);

void BM_SubCoordinatorHandleCompletion(benchmark::State& state) {
  const std::size_t members = 256;
  const std::vector<double> member_bytes(members, 1e6);
  for (auto _ : state) {
    state.PauseTiming();
    core::SubCoordinatorFsm::Config cfg;
    cfg.group = 0;
    cfg.rank = 0;
    cfg.coordinator = 0;
    cfg.first_member = 0;
    cfg.n_members = members;
    cfg.member_bytes = member_bytes;
    core::SubCoordinatorFsm sc(cfg);
    sc.start();
    state.ResumeTiming();
    for (std::size_t i = 0; i < members; ++i) {
      core::WriteComplete done;
      done.kind = core::WriteComplete::Kind::WriterDone;
      done.writer = static_cast<core::Rank>(i);
      done.origin_group = 0;
      done.file = 0;
      done.bytes = 1e6;
      benchmark::DoNotOptimize(sc.on_write_complete(done));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * members);
}
BENCHMARK(BM_SubCoordinatorHandleCompletion);

}  // namespace

int main(int argc, char** argv) { return aio::bench::micro_main(argc, argv); }
