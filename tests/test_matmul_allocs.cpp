// Allocation stability of the serving hot path.
//
// AnalogMatmul::forward across changing row counts: a serving step
// alternates prefill-sized and decode-sized calls on every layer; the
// forward's work slots must survive the small call so the next large one
// reuses them. The check is exact: after one warm-up of each shape, a
// forward must allocate exactly as many times as a repeat of the same
// shape, whatever shape ran before it.
//
// Scheduler::step in steady decode: every step allocates the same count
// (O(1) in step index and sequence length), pinned under a ceiling.
//
// Own executable: the counting operator new below replaces the global
// allocator for this test binary only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "cim/analog_matmul.hpp"
#include "nn/transformer.hpp"
#include "serve/scheduler.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace nora {
namespace {

Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.fill_gaussian(rng, 1.0f);
  return m;
}

/// Heap allocations made by one forward (its returned Matrix included).
std::int64_t allocs_of_forward(cim::AnalogMatmul& unit, const Matrix& x) {
  const std::int64_t a0 = g_allocs.load(std::memory_order_relaxed);
  { const Matrix y = unit.forward(x); }
  return g_allocs.load(std::memory_order_relaxed) - a0;
}

/// Grow every pool thread's work-item workspace (thread_local in
/// AnalogMatmul, sized by the layer geometry) to its high-water mark, so
/// which thread happens to run an item first cannot show up in a count.
/// Each of the pool's `width` items waits until all have started, so
/// every thread runs exactly one: a sequential forward of one row
/// through its own twin of the layer, visiting every tile.
void warm_pool_workspaces(const Matrix& w, cim::TileConfig cfg) {
  cfg.n_threads = 1;
  util::ThreadPool& pool = util::ThreadPool::global();
  const int width = pool.threads();
  std::atomic<int> arrived{0};
  pool.parallel_for(width, [&](std::int64_t) {
    arrived.fetch_add(1);
    while (arrived.load() < width) std::this_thread::yield();
    cim::AnalogMatmul twin(w, {}, cfg, 1);
    twin.forward(Matrix(1, w.rows()));
  });
}

/// One layer, unsharded then sharded, at `threads` pool width.
void check_shape_changes(int threads) {
  util::ThreadPool::global().resize(threads);
  // A 3x3 grid of 32x24 tiles, noise and bound management on.
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 32;
  cfg.tile_cols = 24;
  cfg.in_noise = 0.02f;
  cfg.bound_management = true;
  cfg.adc_bound = 4.0f;
  cfg.abft_checksum = true;
  cfg.n_threads = threads;
  const Matrix w = random_matrix(70, 50, 11);
  const Matrix prefill = random_matrix(456, 70, 12);
  const Matrix decode = random_matrix(8, 70, 13);
  warm_pool_workspaces(w, cfg);
  for (const bool sharded : {false, true}) {
    const std::string where = "sharded=" + std::to_string(sharded) +
                              " n_threads=" + std::to_string(threads);
    cim::AnalogMatmul unit(w, {}, cfg, 99);
    if (sharded) unit.set_shard_plan({cim::ShardAxis::kColBlocks, 4});
    allocs_of_forward(unit, prefill);  // warm-up, each shape once
    allocs_of_forward(unit, decode);
    const std::int64_t big_after_small = allocs_of_forward(unit, prefill);
    const std::int64_t big_after_big = allocs_of_forward(unit, prefill);
    const std::int64_t small_after_big = allocs_of_forward(unit, decode);
    const std::int64_t small_after_small = allocs_of_forward(unit, decode);
    const std::int64_t big_again = allocs_of_forward(unit, prefill);
    EXPECT_EQ(big_after_small, big_after_big) << where;
    EXPECT_EQ(small_after_big, small_after_small) << where;
    EXPECT_EQ(big_again, big_after_big) << where;
    // A forward's own cost is O(1) allocations, not O(rows).
    EXPECT_LE(big_after_big, 4) << where;
  }
  util::ThreadPool::global().resize(1);
}

TEST(MatmulAllocs, ShapeChangesAllocateLikeRepeatsSequential) {
  check_shape_changes(1);
}

TEST(MatmulAllocs, ShapeChangesAllocateLikeRepeatsFourThreads) {
  check_shape_changes(4);
}

/// Steady-state decode at 4 pool threads: a 4-layer d64 analog model on
/// 64x48 tiles, 4 requests with 8-token prompts decoding together under
/// max_batch 8. Past admission, prefill and the scratch high-water
/// marks, what a step still allocates (fresh activation matrices, pool
/// job plumbing) must be the same in every window, and no more than the
/// count measured when the ceiling was set: one extra allocation per
/// step fails. Lower it when a change removes allocations.
TEST(MatmulAllocs, DecodeStepAllocationsArePinned) {
  constexpr int kThreads = 4;
  constexpr int kWarmSteps = 6;
  constexpr int kWindowSteps = 16;
  constexpr std::int64_t kMaxAllocsPerStep = 93;
  util::ThreadPool::global().resize(kThreads);
  nn::TransformerConfig arch;
  arch.vocab_size = 64;
  arch.d_model = 64;
  arch.n_layers = 4;
  arch.n_heads = 4;
  arch.d_ff = 128;
  arch.max_seq = 256;
  arch.seed = 77;
  nn::TransformerLM model(arch);
  cim::TileConfig tile = cim::TileConfig::paper_table2();
  tile.tile_rows = 64;
  tile.tile_cols = 48;
  tile.n_threads = kThreads;
  std::uint64_t seed = 900;
  for (auto* lin : model.linear_layers()) lin->to_analog(tile, {}, seed++);
  // The widest layer shape (2 row blocks of 4 tiles) covers every
  // layer's workspace high-water mark.
  warm_pool_workspaces(random_matrix(arch.d_ff, 3 * arch.d_model, 14), tile);

  serve::SchedulerConfig scfg;
  scfg.max_batch = 8;
  serve::Scheduler sched(model, scfg);
  for (int i = 0; i < 4; ++i) {
    serve::RequestParams p;
    p.prompt = {1, 2, 3, 4, 5, 6, 7, 8};
    // Long enough that no request retires inside a measured window.
    p.max_new_tokens = kWarmSteps + 2 * kWindowSteps + 8;
    p.stream_seed = 500 + static_cast<std::uint64_t>(i);
    sched.submit(std::move(p));
  }
  for (int s = 0; s < kWarmSteps; ++s) sched.step();
  const auto window_allocs = [&] {
    const std::int64_t a0 = g_allocs.load(std::memory_order_relaxed);
    for (int s = 0; s < kWindowSteps; ++s) sched.step();
    return g_allocs.load(std::memory_order_relaxed) - a0;
  };
  const std::int64_t first = window_allocs();
  const std::int64_t second = window_allocs();
  EXPECT_EQ(sched.in_flight(), 4u);
  EXPECT_EQ(first, second);
  EXPECT_LE(first, kMaxAllocsPerStep * kWindowSteps)
      << static_cast<double>(first) / kWindowSteps << " allocs per step";
  sched.run_until_idle();
  util::ThreadPool::global().resize(1);
}

}  // namespace
}  // namespace nora
