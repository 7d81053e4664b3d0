// Shared main for the google-benchmark micro benches (micro_core,
// micro_protocol, micro_shard): AIO_BENCH_JSON=<path> maps onto
// google-benchmark's native JSON reporter, the counterpart of the table
// benches' aio-bench-v1 output.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "obs/env.hpp"

namespace aio::bench {

inline int micro_main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (const obs::EnvSink json = obs::env_sink("AIO_BENCH_JSON", /*needs_path=*/true); json.on) {
    out_flag = "--benchmark_out=" + json.path;
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace aio::bench
