/// \file micro_oram.cpp
/// Micro-benchmarks for Path ORAM: write/read at several capacities — the
/// per-access cost behind the ObliDB "indexed" storage mode — and a full
/// touch scan at the oblivious-scan per-shard geometry.
#include <benchmark/benchmark.h>

#include "oram/path_oram.h"

namespace dpsync::oram {
namespace {

void BM_OramWrite(benchmark::State& state) {
  PathOram::Config cfg;
  cfg.capacity = static_cast<size_t>(state.range(0));
  cfg.seed = 1;
  PathOram oram(cfg);
  Bytes payload(92, 0xaa);
  uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oram.Write(id % (cfg.capacity - 1), payload));
    ++id;
  }
}
BENCHMARK(BM_OramWrite)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_OramRead(benchmark::State& state) {
  PathOram::Config cfg;
  cfg.capacity = static_cast<size_t>(state.range(0));
  cfg.seed = 2;
  PathOram oram(cfg);
  Bytes payload(92, 0xbb);
  size_t n = cfg.capacity / 2;
  for (uint64_t i = 0; i < n; ++i) {
    if (!oram.Write(i, payload).ok()) state.SkipWithError("fill failed");
  }
  uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oram.Read(id % n));
    ++id;
  }
}
BENCHMARK(BM_OramRead)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_OramReadWriteMix(benchmark::State& state) {
  PathOram::Config cfg;
  cfg.capacity = 16384;
  cfg.seed = 3;
  PathOram oram(cfg);
  Bytes payload(92, 0xcc);
  for (uint64_t i = 0; i < 8000; ++i) {
    if (!oram.Write(i, payload).ok()) state.SkipWithError("fill failed");
  }
  Rng rng(4);
  for (auto _ : state) {
    uint64_t id = static_cast<uint64_t>(rng.UniformInt(0, 7999));
    if (rng.Bernoulli(0.5)) {
      benchmark::DoNotOptimize(oram.Read(id));
    } else {
      benchmark::DoNotOptimize(oram.Write(id, payload));
    }
  }
}
BENCHMARK(BM_OramReadWriteMix);

// One oblivious indexed scan at the per-shard geometry of the perfbench
// oblivious-scan workload: a 13,014-capacity tree holding 3,000 live
// 92-byte blocks, touched once each in ascending id order per iteration.
void BM_OramTouchScan(benchmark::State& state) {
  PathOram::Config cfg;
  cfg.capacity = 13014;
  cfg.seed = 5;
  PathOram oram(cfg);
  const uint64_t kBlocks = 3000;
  Bytes payload(92, 0xdd);
  for (uint64_t i = 0; i < kBlocks; ++i) {
    if (!oram.Write(i, payload).ok()) state.SkipWithError("fill failed");
  }
  for (auto _ : state) {
    for (uint64_t id = 0; id < kBlocks; ++id) {
      benchmark::DoNotOptimize(oram.Touch(id));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBlocks));
}
BENCHMARK(BM_OramTouchScan)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dpsync::oram
