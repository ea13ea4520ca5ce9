// Cross-request KV prefix caching: pool mechanics and the serving-layer
// bit-exactness contract.
//
// The headline property: a request admitted with a prefix lease — its
// prompt's leading tokens' KV rows read from a retired predecessor's
// published slab instead of being recomputed — produces tokens AND
// logits bit-identical to the cold run that prefills everything itself.
// This holds because KV row i depends only on tokens 0..i and the noise
// keys (stream, 0..i), so for the SAME stream the shared rows ARE the
// rows the cold run would compute. Divergence is copy-on-write by
// construction (appends only ever touch the private slab), eviction is
// LRU over unreferenced entries, and cancelling a lease-holding request
// releases its reference exactly once.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cim/tile_config.hpp"
#include "nn/transformer.hpp"
#include "serve/auditor.hpp"
#include "serve/kv_cache_pool.hpp"
#include "serve/scheduler.hpp"
#include "shard/apply.hpp"
#include "shard/chip_set.hpp"
#include "shard/plan.hpp"
#include "util/thread_pool.hpp"

namespace nora::serve {
namespace {

nn::TransformerConfig tiny_arch() {
  nn::TransformerConfig cfg;
  cfg.vocab_size = 30;
  cfg.d_model = 24;
  cfg.n_layers = 2;
  cfg.n_heads = 3;
  cfg.d_ff = 48;
  cfg.max_seq = 32;
  cfg.seed = 77;
  return cfg;
}

/// Noisy analog operating point: per-row keyed noise is what makes the
/// bit-exactness claim non-trivial (a digital model is trivially
/// deterministic). `threads` is the tiles' n_threads; size the global
/// pool to match.
nn::TransformerLM make_analog_model(int threads = 1) {
  cim::TileConfig tile = cim::TileConfig::paper_table2();
  tile.tile_rows = 16;
  tile.tile_cols = 12;
  tile.in_noise = 0.02f;
  tile.n_threads = threads;
  nn::TransformerLM model(tiny_arch());
  std::uint64_t seed = 900;
  for (auto* lin : model.linear_layers()) {
    lin->to_analog(tile, {}, seed++);
  }
  return model;
}

/// Give a pool-owned slab `rows` of fake cached content so publish/trim
/// have real matrices to work on (pool unit tests run without a model).
void fake_fill(nn::KvCache* cache, std::int64_t rows) {
  cache->blocks.resize(1);
  cache->blocks[0].k = Matrix(rows, 2);
  cache->blocks[0].v = Matrix(rows, 2);
  cache->length = rows;
}

/// Warmed row capacity of the first block (what best-fit matches on).
std::int64_t warmed(const nn::KvCache* cache) {
  return cache->blocks.empty() ? 0 : cache->blocks[0].k.row_capacity();
}

TEST(KvPrefixPool, BestFitPrefersSmallestCoveringWarmedSlab) {
  KvCachePool pool(/*budget_tokens=*/64);
  nn::KvCache* a = pool.acquire(4);
  nn::KvCache* b = pool.acquire(8);
  nn::KvCache* c = pool.acquire(16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  // Warm each slab to its lease size (the transformer would).
  fake_fill(a, 4);
  fake_fill(b, 8);
  fake_fill(c, 16);
  pool.release(a);
  pool.release(b);
  pool.release(c);
  // 6 rows fit in the 8-slab: best-fit must skip the 16-slab even
  // though it covers too (first-fit used to grab whatever came first).
  nn::KvCache* got = pool.acquire(6);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got, b);
  EXPECT_GE(warmed(got), 8);
  // Nothing warmed covers 20: take the most-warmed slab (least new
  // allocation when it grows).
  nn::KvCache* big = pool.acquire(20);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big, c);
  EXPECT_GE(warmed(big), 16);
  pool.release(got);
  pool.release(big);
  EXPECT_EQ(pool.used_tokens(), 0);
}

TEST(KvPrefixPool, PublishLeaseReleaseConservation) {
  KvCachePool pool(/*budget_tokens=*/32);
  nn::KvCache* slab = pool.acquire(8);
  ASSERT_NE(slab, nullptr);
  fake_fill(slab, 6);  // prompt 4 + 2 decode rows
  const std::vector<int> prompt = {1, 2, 3, 4};
  EXPECT_TRUE(pool.publish_prefix(42, prompt, slab));
  // The lease ended (publish counts as the release); only the trimmed
  // prompt rows stay resident.
  EXPECT_EQ(pool.total_acquires(), pool.total_releases());
  EXPECT_EQ(pool.used_tokens(), 4);
  EXPECT_EQ(pool.prefix_tokens(), 4);
  EXPECT_EQ(pool.prefix_published(), 1);

  // Identical prompt: share everything but the last token (the lessee
  // must compute at least one row to get its logits).
  const std::vector<int> same = {1, 2, 3, 4};
  auto l1 = pool.lease_prefix(42, same);
  ASSERT_NE(l1.base, nullptr);
  EXPECT_EQ(l1.tokens, 3);
  EXPECT_EQ(l1.base->length, 4);
  // Divergent continuation: share up to the divergence point.
  const std::vector<int> diverged = {1, 2, 9, 9, 9};
  auto l2 = pool.lease_prefix(42, diverged);
  ASSERT_NE(l2.base, nullptr);
  EXPECT_EQ(l2.tokens, 2);
  EXPECT_EQ(pool.prefix_refs(), 2);
  EXPECT_EQ(pool.prefix_leases() - pool.prefix_lease_releases(),
            pool.prefix_refs());
  // Wrong stream / first-token mismatch / 1-token prompt: all misses.
  const std::vector<int> other_head = {9, 2, 3};
  const std::vector<int> lone = {1};
  EXPECT_EQ(pool.lease_prefix(43, same).base, nullptr);
  EXPECT_EQ(pool.lease_prefix(42, other_head).base, nullptr);
  EXPECT_EQ(pool.lease_prefix(42, lone).base, nullptr);
  pool.release_prefix(l1.base);
  pool.release_prefix(l2.base);
  EXPECT_EQ(pool.prefix_refs(), 0);
  EXPECT_THROW(pool.release_prefix(l1.base), std::invalid_argument);
}

TEST(KvPrefixPool, EvictionUnderBudgetPressureIsLruAndRefAware) {
  KvCachePool pool(/*budget_tokens=*/16);
  // Publish two entries on different streams: 6 + 6 resident tokens.
  for (std::uint64_t stream = 1; stream <= 2; ++stream) {
    nn::KvCache* slab = pool.acquire(8);
    ASSERT_NE(slab, nullptr);
    fake_fill(slab, 7);
    std::vector<int> prompt(6, static_cast<int>(stream));
    EXPECT_TRUE(pool.publish_prefix(stream, prompt, slab));
  }
  EXPECT_EQ(pool.prefix_tokens(), 12);
  // Touch stream 1 so stream 2 becomes the LRU entry.
  auto touch = pool.lease_prefix(1, std::vector<int>(6, 1));
  ASSERT_NE(touch.base, nullptr);
  pool.release_prefix(touch.base);
  // A 10-token lease does not fit (12 + 10 > 16): evict LRU entries
  // until it does. One eviction (stream 2) suffices.
  nn::KvCache* slab = pool.acquire(10);
  ASSERT_NE(slab, nullptr);
  EXPECT_EQ(pool.prefix_evicted(), 1);
  EXPECT_EQ(pool.prefix_tokens(), 6);
  auto survivor = pool.lease_prefix(1, std::vector<int>(6, 1));
  EXPECT_NE(survivor.base, nullptr);
  EXPECT_EQ(pool.lease_prefix(2, std::vector<int>(6, 2)).base, nullptr);
  pool.release_prefix(survivor.base);

  // A referenced entry must NOT be evicted: demand that cannot be met
  // without it fails instead.
  auto held = pool.lease_prefix(1, std::vector<int>(6, 1));
  ASSERT_NE(held.base, nullptr);
  EXPECT_EQ(pool.acquire(12), nullptr);  // 10 leased + 6 held > 16
  pool.release_prefix(held.base);
  EXPECT_NE(pool.acquire(6), nullptr);  // now the entry can go
  EXPECT_EQ(pool.prefix_tokens(), 0);
}

TEST(KvPrefixPool, InvalidateFreesNowOrOnLastRelease) {
  KvCachePool pool(/*budget_tokens=*/32);
  const std::vector<int> prompt = {1, 2, 3, 4, 5};
  const std::vector<int> longer = {1, 2, 3, 4, 5, 6};
  nn::KvCache* slab = pool.acquire(8);
  fake_fill(slab, 5);
  EXPECT_TRUE(pool.publish_prefix(7, prompt, slab));
  auto lease = pool.lease_prefix(7, longer);
  ASSERT_NE(lease.base, nullptr);
  EXPECT_EQ(pool.invalidate_prefixes(), 1);
  // Dead but referenced: still resident, but no new leases.
  EXPECT_EQ(pool.prefix_tokens(), 5);
  EXPECT_EQ(pool.lease_prefix(7, longer).base, nullptr);
  pool.release_prefix(lease.base);  // last reference frees it
  EXPECT_EQ(pool.prefix_tokens(), 0);
  EXPECT_EQ(pool.used_tokens(), 0);
  // Unreferenced entries are freed immediately.
  slab = pool.acquire(8);
  fake_fill(slab, 5);
  const std::vector<int> short_prompt = {1, 2, 3};
  EXPECT_TRUE(pool.publish_prefix(8, short_prompt, slab));
  EXPECT_EQ(pool.invalidate_prefixes(), 1);
  EXPECT_EQ(pool.used_tokens(), 0);
}

/// Run one request to completion and return its terminal record.
RequestRecord run_one(Scheduler& sched, const std::vector<int>& prompt,
                      std::uint64_t stream, int max_new = 4) {
  RequestParams p;
  p.prompt = prompt;
  p.max_new_tokens = max_new;
  p.stream_seed = stream;
  const std::int64_t id = sched.submit(std::move(p));
  sched.run_until_idle();
  return sched.request(id);
}

SchedulerConfig logits_cfg() {
  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.record_logits = true;
  return cfg;
}

/// Pool widths the prefix-reuse properties run at: at width > 1 the new
/// K/V rows written behind a leased base are filled by parallel head
/// items, and the analog layers and MLP activation fan out too.
constexpr int kPrefixWidths[] = {1, 4};

/// Restores the global pool to width 1 when a width loop ends or fails.
struct PoolWidth {
  explicit PoolWidth(int threads) { util::ThreadPool::global().resize(threads); }
  ~PoolWidth() { util::ThreadPool::global().resize(1); }
};

TEST(ServePrefix, WarmHitBitIdenticalToColdRun) {
  for (const int threads : kPrefixWidths) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const PoolWidth width(threads);
    nn::TransformerLM model = make_analog_model(threads);
    const std::uint64_t stream = 777;
    const std::vector<int> first = {3, 1, 4, 1, 5, 9, 2, 6};
    std::vector<int> follow = first;
    follow.push_back(8);  // multi-turn continuation of the same prompt

    // Cold reference: a fresh scheduler serves the follow-up with no
    // published prefixes anywhere.
    Scheduler cold(model, logits_cfg());
    const RequestRecord ref = run_one(cold, follow, stream);
    ASSERT_EQ(ref.state, RequestState::kFinished);

    // Warm path: the first request retires and publishes its prompt rows;
    // the follow-up on the SAME stream leases them.
    Scheduler warm(model, logits_cfg());
    Auditor auditor(warm);
    const RequestRecord a = run_one(warm, first, stream);
    ASSERT_EQ(a.state, RequestState::kFinished);
    EXPECT_EQ(warm.metrics().kv_prefix_published, 1);
    const RequestRecord b = run_one(warm, follow, stream);
    ASSERT_EQ(b.state, RequestState::kFinished);
    const Metrics m = warm.metrics();
    EXPECT_EQ(m.kv_prefix_hits, 1);
    EXPECT_EQ(m.kv_prefix_hit_tokens,
              static_cast<std::int64_t>(first.size()));  // whole first prompt

    // Tokens AND logits, bit for bit.
    EXPECT_EQ(b.tokens, ref.tokens);
    ASSERT_EQ(b.logits.size(), ref.logits.size());
    for (std::size_t t = 0; t < b.logits.size(); ++t) {
      EXPECT_EQ(b.logits[t], ref.logits[t]) << "logits row " << t;
    }
    EXPECT_EQ(auditor.check_idle(), 0u) << auditor.violations().front();
  }
}

TEST(ServePrefix, DivergenceIsCopyOnWrite) {
  for (const int threads : kPrefixWidths) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const PoolWidth width(threads);
    nn::TransformerLM model = make_analog_model(threads);
    const std::uint64_t stream = 555;
    const std::vector<int> base_prompt = {7, 2, 8, 1, 8, 2, 8};
    std::vector<int> diverged = base_prompt;
    diverged[4] = 3;  // shares tokens [0,4), then splits
    diverged.push_back(6);

    // Each reference runs on its own scheduler, so nothing is warm.
    Scheduler cold_div(model, logits_cfg());
    const RequestRecord ref_div = run_one(cold_div, diverged, stream);
    Scheduler cold_base(model, logits_cfg());
    const RequestRecord ref_base = run_one(cold_base, base_prompt, stream);

    Scheduler warm(model, logits_cfg());
    Auditor auditor(warm);
    const RequestRecord a = run_one(warm, base_prompt, stream);
    ASSERT_EQ(a.state, RequestState::kFinished);
    EXPECT_EQ(a.tokens, ref_base.tokens);  // cold == cold sanity
    // Diverging request: leases only the common prefix, recomputes the
    // rest, and must match its own cold run.
    const RequestRecord b = run_one(warm, diverged, stream);
    EXPECT_EQ(warm.metrics().kv_prefix_hits, 1);
    EXPECT_EQ(warm.metrics().kv_prefix_hit_tokens, 4);
    EXPECT_EQ(b.tokens, ref_div.tokens);
    // Copy-on-write: b's divergence must not have corrupted the published
    // rows — a third request repeating the ORIGINAL prompt still matches
    // its cold run while leasing the same entry.
    const RequestRecord c = run_one(warm, base_prompt, stream);
    EXPECT_EQ(warm.metrics().kv_prefix_hits, 2);
    EXPECT_EQ(c.tokens, ref_base.tokens);
    for (std::size_t t = 0; t < c.logits.size(); ++t) {
      EXPECT_EQ(c.logits[t], ref_base.logits[t]) << "logits row " << t;
    }
    EXPECT_EQ(auditor.check_idle(), 0u) << auditor.violations().front();
  }
}

TEST(ServePrefix, EvictionUnderBudgetPressureKeepsServing) {
  nn::TransformerLM model = make_analog_model();
  SchedulerConfig cfg = logits_cfg();
  cfg.kv_budget_tokens = 16;  // one request's footprint + little else
  Scheduler sched(model, cfg);
  Auditor auditor(sched);
  // Distinct streams: every retirement publishes, every admission then
  // needs the budget back — the store must yield (LRU) every time.
  for (int i = 0; i < 4; ++i) {
    const RequestRecord r = run_one(
        sched, {1 + i, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
        /*stream=*/9000 + static_cast<std::uint64_t>(i));
    ASSERT_EQ(r.state, RequestState::kFinished) << i;
  }
  const Metrics m = sched.metrics();
  EXPECT_EQ(m.finished, 4);
  EXPECT_GT(m.kv_prefix_published, 0);
  EXPECT_GT(m.kv_prefix_evicted, 0);  // pressure actually evicted
  EXPECT_LE(m.kv_used_tokens, 16);
  EXPECT_EQ(auditor.check_idle(), 0u) << auditor.violations().front();
}

TEST(ServePrefix, CancelMidPrefixReleasesLeaseExactlyOnce) {
  nn::TransformerLM model = make_analog_model();
  const std::uint64_t stream = 321;
  const std::vector<int> prompt = {5, 5, 5, 5, 5, 5};
  for (int cancel_step = 0; cancel_step < 6; ++cancel_step) {
    Scheduler sched(model, logits_cfg());
    Auditor auditor(sched);
    const RequestRecord a = run_one(sched, prompt, stream, /*max_new=*/6);
    ASSERT_EQ(a.state, RequestState::kFinished);
    RequestParams p;
    p.prompt = prompt;
    p.prompt.push_back(9);
    p.max_new_tokens = 6;
    p.stream_seed = stream;
    const std::int64_t id = sched.submit(std::move(p));
    // Audit the conservation invariants after EVERY step, not just at
    // idle: a lease released twice (or not at all) on the cancel path
    // shows up as a transient refs mismatch that an idle-only audit
    // would miss once later steps rebalance the counters.
    for (int s = 0; s < cancel_step; ++s) {
      sched.step();
      ASSERT_EQ(auditor.check(), 0u)
          << "pre-cancel step " << s << ": " << auditor.violations().back();
    }
    if (cancel_step > 0) {  // admission (and the lease) happens in step()
      EXPECT_EQ(sched.metrics().kv_prefix_hits, 1);
    }
    sched.cancel(id);
    while (sched.step()) {
      ASSERT_EQ(auditor.check(), 0u)
          << "post-cancel: " << auditor.violations().back();
    }
    const RequestState st = sched.request(id).state;
    EXPECT_TRUE(st == RequestState::kCancelled ||
                st == RequestState::kFinished);
    // Whatever step the cancel landed on, the lease came back exactly
    // once (the idle audit checks refs == 0 and slab conservation).
    EXPECT_EQ(auditor.check_idle(), 0u)
        << "cancel at " << cancel_step << ": " << auditor.violations().front();
  }
}

TEST(ServePrefix, CancelHammerUnderBudgetPressureHoldsEveryStep) {
  // Same per-step audit, but with a budget so tight that every admission
  // fights the prefix store for tokens: cancels now race against LRU
  // eviction and lease-or-evict decisions, the paths where a lease
  // refcount is easiest to drop or double-release.
  nn::TransformerLM model = make_analog_model();
  SchedulerConfig cfg = logits_cfg();
  cfg.kv_budget_tokens = 20;
  const std::vector<int> prompt = {5, 5, 5, 5, 5, 5};
  for (int cancel_step = 0; cancel_step < 5; ++cancel_step) {
    Scheduler sched(model, cfg);
    Auditor auditor(sched);
    const RequestRecord a = run_one(sched, prompt, /*stream=*/64, 4);
    ASSERT_EQ(a.state, RequestState::kFinished);
    // Two follow-ups on the warm stream plus one cold stream: more
    // demand than the budget can hold at once.
    std::vector<std::int64_t> ids;
    for (int r = 0; r < 3; ++r) {
      RequestParams p;
      p.prompt = prompt;
      p.prompt.push_back(9 + r);
      p.max_new_tokens = 4;
      p.stream_seed = (r == 2) ? 65 : 64;
      ids.push_back(sched.submit(std::move(p)));
    }
    for (int s = 0; s < cancel_step; ++s) {
      sched.step();
      ASSERT_EQ(auditor.check(), 0u)
          << "pre-cancel step " << s << ": " << auditor.violations().back();
    }
    sched.cancel(ids[static_cast<std::size_t>(cancel_step % 3)]);
    while (sched.step()) {
      ASSERT_EQ(auditor.check(), 0u)
          << "post-cancel: " << auditor.violations().back();
    }
    EXPECT_EQ(auditor.check_idle(), 0u)
        << "cancel at " << cancel_step << ": " << auditor.violations().front();
  }
}

TEST(ServePrefix, DegradedRunsAreNeverPublished) {
  // A tainted (digital-bypass) request must not publish: its rows came
  // off the fp32 path and would poison a future warm run's contract.
  // Simulated here via the pool directly: the scheduler-side guard is
  // `degraded_tokens == 0`, exercised by the maintenance tests; this
  // pins the pool-side fallback when the slab is too short to publish.
  KvCachePool pool(/*budget_tokens=*/32);
  nn::KvCache* slab = pool.acquire(8);
  fake_fill(slab, 2);  // fewer rows than the prompt: cannot publish
  const std::vector<int> prompt = {1, 2, 3, 4};
  EXPECT_FALSE(pool.publish_prefix(1, prompt, slab));
  EXPECT_EQ(pool.prefix_published(), 0);
  EXPECT_EQ(pool.used_tokens(), 0);  // recycled exactly like release()
  EXPECT_EQ(pool.total_acquires(), pool.total_releases());
}

// --- last-row serving: only the rows whose logits are read ------------
//
// Serving reads one logits row per segment, so forward_serve with
// kLastPerSegment runs the last block past its K/V append, and the LM
// head, only on each segment's last row. Every K/V row and every read
// logits row must keep its bits, in mixed batches (multi-row prefills,
// decode rows, a leased prefix) at any pool width, sharded or not, and
// under kAvgAbsMax, whose per-stream alpha couples a segment's rows so
// that every row must run.

/// One operating point of the last-row properties.
struct LastRowCase {
  int threads = 1;
  bool sharded = false;
  cim::InputScaling scaling = cim::InputScaling::kAbsMax;

  std::string name() const {
    return "threads=" + std::to_string(threads) +
           " sharded=" + std::to_string(sharded) + " scaling=" +
           (scaling == cim::InputScaling::kAbsMax ? "abs_max" : "avg_abs_max");
  }
};

std::vector<LastRowCase> last_row_cases() {
  std::vector<LastRowCase> out;
  for (const int threads : kPrefixWidths) {
    for (const bool sharded : {false, true}) {
      for (const cim::InputScaling scaling :
           {cim::InputScaling::kAbsMax, cim::InputScaling::kAvgAbsMax}) {
        out.push_back({threads, sharded, scaling});
      }
    }
  }
  return out;
}

/// The tiny analog model at `c`: 16-row tiles (d_model 24 spans two row
/// blocks), on a 2-chip tensor-parallel plan when `c.sharded`.
nn::TransformerLM make_last_row_model(const LastRowCase& c) {
  cim::TileConfig tile = cim::TileConfig::paper_table2();
  tile.tile_rows = 16;
  tile.tile_cols = 12;
  tile.in_noise = 0.02f;
  tile.scaling = c.scaling;
  tile.n_threads = c.threads;
  nn::TransformerLM model(tiny_arch());
  std::uint64_t seed = 900;
  for (auto* lin : model.linear_layers()) lin->to_analog(tile, {}, seed++);
  if (c.sharded) {
    shard::apply_plan(model, shard::ChipSet(2),
                      shard::plan_tensor_parallel(
                          static_cast<int>(model.blocks().size()), 2));
  }
  return model;
}

bool rows_bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

bool matrices_bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

TEST(LastRowServe, LogitsAndKvMatchEveryRowRunInMixedBatches) {
  const std::vector<int> head = {3, 1, 4, 1, 5, 9, 2};  // leased: 7 rows
  const std::vector<int> fresh = {2, 7, 1, 8, 2};       // 5-row prefill
  const std::vector<int> tail = {6, 5, 3, 5};           // after the lease
  const std::vector<int> decode_a = {4}, decode_b = {8};
  for (const LastRowCase& c : last_row_cases()) {
    SCOPED_TRACE(c.name());
    const PoolWidth width(c.threads);
    nn::TransformerLM model = make_last_row_model(c);
    // History: two requests mid-decode, and a published 7-row prefix
    // (not a multiple of the 16-row tiles) on the leasing stream.
    nn::KvCache hist_a, hist_b, base;
    const std::vector<int> prompt_a = {9, 9, 9, 1, 2, 3};
    const std::vector<int> prompt_b = {5, 4, 3};
    const nn::TransformerLM::ServeSegment setup[] = {
        {prompt_a, &hist_a, 21}, {prompt_b, &hist_b, 22}, {head, &base, 23}};
    model.forward_serve(setup);

    struct Run {
      Matrix logits;
      std::vector<nn::KvCache> caches;
    };
    const auto run = [&](nn::TransformerLM::LogitRows rows) {
      Run r;
      r.caches = {hist_a, nn::KvCache{}, nn::KvCache{}, hist_b};
      const nn::TransformerLM::ServeSegment segs[] = {
          {decode_a, &r.caches[0], 21},
          {fresh, &r.caches[1], 24},
          {tail, &r.caches[2], 23, &base, static_cast<std::int64_t>(head.size())},
          {decode_b, &r.caches[3], 22}};
      r.logits = model.forward_serve(segs, rows);
      return r;
    };
    const Run every = run(nn::TransformerLM::LogitRows::kEvery);
    const Run last = run(nn::TransformerLM::LogitRows::kLastPerSegment);
    const std::int64_t seg_rows[] = {1, 5, 4, 1};
    ASSERT_EQ(every.logits.rows(), 11);
    ASSERT_EQ(last.logits.rows(), 4);
    std::int64_t end = 0;
    for (std::int64_t s = 0; s < 4; ++s) {
      end += seg_rows[s];
      EXPECT_TRUE(rows_bitwise_equal(last.logits.row(s),
                                     every.logits.row(end - 1)))
          << "segment " << s;
      const nn::KvCache& a = last.caches[static_cast<std::size_t>(s)];
      const nn::KvCache& b = every.caches[static_cast<std::size_t>(s)];
      EXPECT_EQ(a.length, b.length) << "segment " << s;
      for (std::size_t l = 0; l < a.blocks.size(); ++l) {
        EXPECT_TRUE(matrices_bitwise_equal(a.blocks[l].k, b.blocks[l].k))
            << "segment " << s << " block " << l << " K";
        EXPECT_TRUE(matrices_bitwise_equal(a.blocks[l].v, b.blocks[l].v))
            << "segment " << s << " block " << l << " V";
      }
    }
  }
}

TEST(LastRowServe, ScheduledLogitsMatchInferLastRow) {
  const std::vector<int> head = {3, 1, 4, 1, 5, 9, 2};
  std::vector<int> leased = head;
  leased.insert(leased.end(), {6, 5, 3, 5});
  const std::vector<int> fresh = {2, 7, 1, 8, 2};
  const std::vector<int> early = {9, 9, 9};
  for (const LastRowCase& c : last_row_cases()) {
    SCOPED_TRACE(c.name());
    const PoolWidth width(c.threads);
    nn::TransformerLM model = make_last_row_model(c);
    Scheduler sched(model, logits_cfg());
    // Publish the 7-row head on stream 23, then serve one step of
    // `early` so its decode rows share steps with the two prefills.
    ASSERT_EQ(run_one(sched, head, 23, 1).state, RequestState::kFinished);
    const auto submit = [&](const std::vector<int>& prompt,
                            std::uint64_t stream) {
      RequestParams p;
      p.prompt = prompt;
      p.max_new_tokens = 4;
      p.stream_seed = stream;
      return sched.submit(std::move(p));
    };
    const std::int64_t id_early = submit(early, 21);
    sched.step();
    const std::int64_t id_fresh = submit(fresh, 24);
    const std::int64_t id_leased = submit(leased, 23);
    sched.run_until_idle();
    // Under kAvgAbsMax, whose alpha couples the rows of one call, the
    // scheduler neither publishes nor leases: `leased` is prefilled cold,
    // so no earlier traffic enters its bits.
    const bool avg = c.scaling == cim::InputScaling::kAvgAbsMax;
    const Metrics m = sched.metrics();
    EXPECT_EQ(m.kv_prefix_hits, avg ? 0 : 1);
    EXPECT_EQ(m.kv_prefix_hit_tokens,
              avg ? 0 : static_cast<std::int64_t>(head.size()));
    EXPECT_EQ(m.kv_prefix_published, avg ? 0 : 3);  // all but `leased`
    const struct {
      std::int64_t id;
      const std::vector<int>* prompt;
      std::uint64_t stream;
    } served[] = {{id_early, &early, 21},
                  {id_fresh, &fresh, 24},
                  {id_leased, &leased, 23}};
    for (const auto& r : served) {
      const RequestRecord rec = sched.request(r.id);
      ASSERT_EQ(rec.state, RequestState::kFinished);
      ASSERT_EQ(rec.logits.size(), 4u);
      // kAvgAbsMax averages alpha over the rows one call runs per
      // stream, so a prompt prefilled in one piece matches a cold infer
      // only at its first token.
      std::vector<int> seq = *r.prompt;
      for (std::size_t t = 0; t < (avg ? 1 : rec.logits.size()); ++t) {
        const Matrix ref = model.infer(seq, r.stream);
        EXPECT_TRUE(rows_bitwise_equal(rec.logits[t], ref.row(ref.rows() - 1)))
            << "request " << r.id << " token " << t;
        seq.push_back(rec.tokens[t]);
      }
    }
  }
}

TEST(LastRowServe, PrefillStepReadsLmHeadOncePerSegment) {
  const std::vector<std::vector<int>> prompts = {
      {3, 1, 4, 1, 5}, {2, 7, 1, 8}, {9, 9, 9, 1, 2, 3}};
  const std::int64_t rows = 15;
  for (const cim::InputScaling scaling :
       {cim::InputScaling::kAbsMax, cim::InputScaling::kAvgAbsMax}) {
    const LastRowCase c{1, false, scaling};
    SCOPED_TRACE(c.name());
    nn::TransformerLM model = make_last_row_model(c);
    for (nn::Linear* lin : model.linear_layers()) lin->analog()->reset_stats();
    Scheduler sched(model, logits_cfg());
    std::uint64_t stream = 31;
    for (const std::vector<int>& prompt : prompts) {
      RequestParams p;
      p.prompt = prompt;
      p.max_new_tokens = 2;
      p.stream_seed = stream++;
      sched.submit(std::move(p));
    }
    sched.step();  // admits and prefills all three
    // One row costs each row block one read per output column (Table II
    // tiles: no bound-management retries).
    const auto reads_per_row = [](nn::Linear& lin) {
      return lin.analog()->row_blocks() * lin.analog()->out_dim();
    };
    const bool prune = scaling == cim::InputScaling::kAbsMax;
    const std::int64_t segs = static_cast<std::int64_t>(prompts.size());
    nn::Linear& head = model.lm_head();
    EXPECT_EQ(head.analog()->adc_reads(),
              (prune ? segs : rows) * reads_per_row(head));
    nn::Linear& last_down = model.blocks().back().mlp().down();
    EXPECT_EQ(last_down.analog()->adc_reads(),
              (prune ? segs : rows) * reads_per_row(last_down));
    // Every row's K/V is still appended: the QKV projections and the
    // earlier blocks run every row.
    nn::Linear& last_qkv = model.blocks().back().attention().qkv();
    EXPECT_EQ(last_qkv.analog()->adc_reads(), rows * reads_per_row(last_qkv));
    nn::Linear& first_down = model.blocks().front().mlp().down();
    EXPECT_EQ(first_down.analog()->adc_reads(),
              rows * reads_per_row(first_down));
    sched.run_until_idle();
  }
}

}  // namespace
}  // namespace nora::serve
