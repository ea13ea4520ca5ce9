// google-benchmark microbenchmarks of the simulator's hot paths: digital
// GEMM vs analog tile MVM at several sizes and noise configurations,
// plus the quantizer and Gaussian-sampling kernels.
//
// These don't reproduce a paper figure; they document the simulation
// cost model (how much each modelled non-ideality costs per MVM).
#include <benchmark/benchmark.h>

#include "cim/analog_matmul.hpp"
#include "noise/quantizer.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace nora;

namespace {

Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.fill_gaussian(rng, 0.5f);
  return m;
}

void BM_DigitalGemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Matrix w = random_matrix(n, n, 1);
  const Matrix x = random_matrix(8, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(x, w));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n * n);
}
BENCHMARK(BM_DigitalGemm)->Arg(64)->Arg(128)->Arg(256);

void BM_AnalogIdeal(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Matrix w = random_matrix(n, n, 3);
  const Matrix x = random_matrix(8, n, 4);
  cim::AnalogMatmul unit(w, {}, cim::TileConfig::ideal(), 5);
  const auto keys = cim::stream_keys(0, x.rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.forward(x, keys));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n * n);
}
BENCHMARK(BM_AnalogIdeal)->Arg(64)->Arg(128)->Arg(256);

void BM_AnalogTable2(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Matrix w = random_matrix(n, n, 6);
  const Matrix x = random_matrix(8, n, 7);
  cim::AnalogMatmul unit(w, {}, cim::TileConfig::paper_table2(), 8);
  const auto keys = cim::stream_keys(0, x.rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.forward(x, keys));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n * n);
}
BENCHMARK(BM_AnalogTable2)->Arg(64)->Arg(128)->Arg(256);

void BM_AnalogIrDropOnly(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Matrix w = random_matrix(n, n, 9);
  const Matrix x = random_matrix(8, n, 10);
  cim::AnalogMatmul unit(w, {}, cim::TileConfig::ideal_except_ir_drop(1.0f), 11);
  const auto keys = cim::stream_keys(0, x.rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.forward(x, keys));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n * n);
}
BENCHMARK(BM_AnalogIrDropOnly)->Arg(128);

void BM_TileProgramming(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Matrix w = random_matrix(n, n, 12);
  const cim::TileConfig cfg = cim::TileConfig::paper_table2();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    cim::AnalogMatmul unit(w, {}, cfg, ++seed);
    benchmark::DoNotOptimize(&unit);
  }
}
BENCHMARK(BM_TileProgramming)->Arg(128)->Arg(512);

// Thread scaling of the deterministic parallel forward: a 1024x1024
// weight matrix (2x2 grid of 512x512 tiles) at 16 tokens, full
// paper_table2 noise. Output is bit-identical at every width (see
// tests/test_thread_invariance.cpp), so this measures pure speedup.
// Run with --benchmark_format=json to capture the table for
// EXPERIMENTS.md.
void BM_AnalogTable2ThreadScaling(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  util::ThreadPool::global().resize(threads);
  const std::int64_t n = 1024;
  const Matrix w = random_matrix(n, n, 15);
  const Matrix x = random_matrix(16, n, 16);
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.n_threads = threads;
  cim::AnalogMatmul unit(w, {}, cfg, 17);
  const auto keys = cim::stream_keys(0, x.rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.forward(x, keys));
  }
  state.SetItemsProcessed(state.iterations() * 16 * n * n);
  state.counters["threads"] = threads;
  util::ThreadPool::global().resize(1);
}
BENCHMARK(BM_AnalogTable2ThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Digital GEMM thread scaling (tensor/ops.cpp row-parallel dispatch).
void BM_DigitalGemmThreadScaling(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  util::ThreadPool::global().resize(threads);
  const std::int64_t n = 512;
  const Matrix w = random_matrix(n, n, 18);
  const Matrix x = random_matrix(64, n, 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(x, w));
  }
  state.SetItemsProcessed(state.iterations() * 64 * n * n);
  state.counters["threads"] = threads;
  util::ThreadPool::global().resize(1);
}
BENCHMARK(BM_DigitalGemmThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_Quantizer(benchmark::State& state) {
  const auto q = noise::UniformQuantizer::from_bits(7, 1.0f);
  util::Rng rng(13);
  std::vector<float> xs(4096);
  for (auto& x : xs) x = static_cast<float>(rng.uniform(-1.5, 1.5));
  for (auto _ : state) {
    auto copy = xs;
    q.apply(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Quantizer);

void BM_GaussianSampling(benchmark::State& state) {
  util::Rng rng(14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.gaussian());
  }
}
BENCHMARK(BM_GaussianSampling);

// One tile pass's batched draws: 128 is a Table II 64-column tile MVM
// (read + output noise per column), 24 a tiny-model 12-column tile.
// Each pass starts from a fresh keyed stream, as AnalogTile::mvm does.
void BM_GaussianFill(benchmark::State& state) {
  std::vector<double> out(static_cast<std::size_t>(state.range(0)));
  std::uint64_t key = 0;
  for (auto _ : state) {
    util::Rng rng(util::derive_stream(15, key++));
    rng.gaussian_fill(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GaussianFill)->Arg(24)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
