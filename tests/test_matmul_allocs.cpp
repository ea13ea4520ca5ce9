// Allocation stability of AnalogMatmul::forward across changing row
// counts. A serving step alternates prefill-sized and decode-sized calls
// on every layer; the forward's work slots must survive the small call
// so the next large one reuses them. The check is exact: after one
// warm-up of each shape, a forward must allocate exactly as many times
// as a repeat of the same shape, whatever shape ran before it.
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

}  // namespace
}  // namespace nora
