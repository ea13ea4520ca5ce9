// Continuous-batching serving layer tests.
//
// The headline property: a request's output (tokens AND logits) is
// bit-identical whether it is served alone or continuously batched with
// any mix of other requests, at any thread-pool width — because every
// noise draw is keyed on (request stream, request-local position), not
// on batch row or arrival order. The rest covers the scheduler's state
// machine (cancel, deadline, pool exhaustion, retirement) and the
// mid-serve integrity-monitor hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "cim/tile_config.hpp"
#include "nn/transformer.hpp"
#include "runtime/integrity_monitor.hpp"
#include "serve/scheduler.hpp"
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

/// Noisy analog operating point with ABFT on, sized so the tiny model
/// spans several tile blocks.
cim::TileConfig noisy_tiles(int n_threads) {
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 16;
  cfg.tile_cols = 12;
  cfg.in_noise = 0.02f;
  cfg.abft_checksum = true;
  cfg.n_threads = n_threads;
  return cfg;
}

nn::TransformerLM make_analog_model(const cim::TileConfig& tile) {
  nn::TransformerLM model(tiny_arch());
  std::uint64_t seed = 900;
  for (auto* lin : model.linear_layers()) {
    lin->to_analog(tile, {}, seed++);
  }
  return model;
}

struct Job {
  std::vector<int> prompt;
  int max_new = 6;
  std::uint64_t stream = 0;
};

const std::vector<Job> kJobs{
    {{3, 1, 4, 1, 5}, 6, 101},
    {{2, 7, 1, 8}, 6, 102},
    {{9, 9, 9}, 6, 103},
    {{1, 2, 3, 4, 5, 6}, 6, 104},
};

/// Serve `jobs` (optionally in a permuted submission order) and return
/// the finished records keyed by stream seed, in kJobs order.
std::vector<RequestRecord> serve_jobs(nn::TransformerLM& model, int max_batch,
                                      const std::vector<std::size_t>& order) {
  SchedulerConfig cfg;
  cfg.max_batch = max_batch;
  cfg.record_logits = true;
  Scheduler sched(model, cfg);
  std::vector<std::int64_t> ids(kJobs.size());
  for (const std::size_t j : order) {
    RequestParams p;
    p.prompt = kJobs[j].prompt;
    p.max_new_tokens = kJobs[j].max_new;
    p.stream_seed = kJobs[j].stream;
    ids[j] = sched.submit(std::move(p));
  }
  sched.run_until_idle();
  std::vector<RequestRecord> out;
  for (std::size_t j = 0; j < kJobs.size(); ++j) {
    out.push_back(sched.request(ids[j]));
    EXPECT_EQ(out.back().state, RequestState::kFinished);
  }
  return out;
}

bool logits_bitwise_equal(const RequestRecord& a, const RequestRecord& b) {
  if (a.logits.size() != b.logits.size()) return false;
  for (std::size_t t = 0; t < a.logits.size(); ++t) {
    if (a.logits[t].size() != b.logits[t].size()) return false;
    if (std::memcmp(a.logits[t].data(), b.logits[t].data(),
                    sizeof(float) * a.logits[t].size()) != 0) {
      return false;
    }
  }
  return true;
}

// --- the tentpole property -------------------------------------------

TEST(ServeBatchInvariance, TokensAndLogitsMatchAloneVsBatchedAnyThreads) {
  const std::vector<std::size_t> fifo{0, 1, 2, 3};
  const std::vector<std::size_t> reversed{3, 2, 1, 0};
  // Reference: one-at-a-time serving (max_batch 1), serial pool.
  util::ThreadPool::global().resize(1);
  nn::TransformerLM ref_model = make_analog_model(noisy_tiles(1));
  const auto ref = serve_jobs(ref_model, /*max_batch=*/1, fifo);
  for (const auto& r : ref) {
    ASSERT_EQ(r.tokens.size(), 6u);
    ASSERT_EQ(r.logits.size(), 6u);
  }
  // Fully batched on a wider pool, FIFO and reversed submission order:
  // same requests, different batch compositions every step.
  struct Case {
    int threads;
    int max_batch;
    const std::vector<std::size_t>* order;
  };
  const Case cases[] = {{3, 4, &fifo}, {1, 2, &reversed}, {3, 4, &reversed}};
  for (const Case& c : cases) {
    util::ThreadPool::global().resize(c.threads);
    nn::TransformerLM model = make_analog_model(noisy_tiles(c.threads));
    const auto got = serve_jobs(model, c.max_batch, *c.order);
    for (std::size_t j = 0; j < kJobs.size(); ++j) {
      EXPECT_EQ(got[j].tokens, ref[j].tokens)
          << "job " << j << " threads=" << c.threads
          << " batch=" << c.max_batch;
      EXPECT_TRUE(logits_bitwise_equal(got[j], ref[j]))
          << "job " << j << " threads=" << c.threads
          << " batch=" << c.max_batch;
    }
  }
  util::ThreadPool::global().resize(1);
}

TEST(ServeBatchInvariance, NoiseIsLiveAndStreamKeyed) {
  // Same prompt, different stream seeds: the analog noise must actually
  // differ (otherwise the invariance property above is vacuous).
  util::ThreadPool::global().resize(1);
  nn::TransformerLM model = make_analog_model(noisy_tiles(1));
  SchedulerConfig cfg;
  cfg.record_logits = true;
  Scheduler sched(model, cfg);
  RequestParams a;
  a.prompt = {3, 1, 4, 1, 5};
  a.max_new_tokens = 4;
  a.stream_seed = 501;
  RequestParams b = a;
  b.stream_seed = 502;
  RequestParams a2 = a;  // identical stream: identical request
  const auto ia = sched.submit(std::move(a));
  const auto ib = sched.submit(std::move(b));
  const auto ia2 = sched.submit(std::move(a2));
  sched.run_until_idle();
  EXPECT_FALSE(logits_bitwise_equal(sched.request(ia), sched.request(ib)));
  EXPECT_TRUE(logits_bitwise_equal(sched.request(ia), sched.request(ia2)));
  EXPECT_EQ(sched.request(ia).tokens, sched.request(ia2).tokens);
}

TEST(ServeBatchInvariance, DigitalSchedulerMatchesGenerate) {
  // On the digital backend the serve path must reproduce plain greedy
  // generate() exactly — batching may not change any request's output.
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.max_batch = 3;
  Scheduler sched(model, cfg);
  std::vector<std::int64_t> ids;
  for (const Job& j : kJobs) {
    RequestParams p;
    p.prompt = j.prompt;
    p.max_new_tokens = j.max_new;
    ids.push_back(sched.submit(std::move(p)));
  }
  sched.run_until_idle();
  for (std::size_t j = 0; j < kJobs.size(); ++j) {
    const auto expect = model.generate(kJobs[j].prompt, kJobs[j].max_new);
    EXPECT_EQ(sched.request(ids[j]).tokens, expect) << "job " << j;
  }
}

// --- scheduler state machine -----------------------------------------

TEST(Scheduler, EmptyTickIsIdle) {
  nn::TransformerLM model(tiny_arch());
  Scheduler sched(model);
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.in_flight(), 0u);
  EXPECT_EQ(sched.metrics().steps, 0);
  EXPECT_EQ(sched.metrics().busy_steps, 0);
}

TEST(Scheduler, RejectsInvalidRequestsAtSubmit) {
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.kv_budget_tokens = 10;
  Scheduler sched(model, cfg);
  const auto empty = sched.submit({});
  RequestParams zero;
  zero.prompt = {1, 2};
  zero.max_new_tokens = 0;
  const auto none = sched.submit(std::move(zero));
  RequestParams longp;
  longp.prompt.assign(32, 1);  // == max_seq: no room for even one token
  const auto toolong = sched.submit(std::move(longp));
  RequestParams fat;
  fat.prompt = {1, 2, 3, 4, 5};
  fat.max_new_tokens = 20;  // footprint 24 > budget 10
  const auto toofat = sched.submit(std::move(fat));
  // Every reject carries its structured cause, not just prose.
  const struct {
    std::int64_t id;
    ServeError code;
  } expected[] = {{empty, ServeError::kEmptyPrompt},
                  {none, ServeError::kMaxTokensNonPositive},
                  {toolong, ServeError::kPromptTooLong},
                  {toofat, ServeError::kFootprintOverBudget}};
  for (const auto& e : expected) {
    EXPECT_EQ(sched.request(e.id).state, RequestState::kRejected);
    EXPECT_EQ(sched.request(e.id).error, e.code);
    EXPECT_FALSE(is_transient(e.code));
  }
  EXPECT_EQ(sched.in_flight(), 0u);
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.metrics().rejected, 4);
  EXPECT_EQ(sched.metrics().rejected_with(ServeError::kEmptyPrompt), 1);
  EXPECT_EQ(sched.metrics().rejected_with(ServeError::kFootprintOverBudget),
            1);
  EXPECT_THROW(sched.request(999), std::out_of_range);
}

TEST(Scheduler, NegativeDeadlineRejectedZeroMeansNoDeadline) {
  // deadline_steps semantics: 0 is EXPLICITLY "no deadline" — such a
  // request must run to completion, not expire instantly; negative
  // values are a caller bug and are rejected with a structured code.
  nn::TransformerLM model(tiny_arch());
  Scheduler sched(model);
  RequestParams neg;
  neg.prompt = {1, 2, 3};
  neg.max_new_tokens = 4;
  neg.deadline_steps = -1;
  const auto bad = sched.submit(std::move(neg));
  EXPECT_EQ(sched.request(bad).state, RequestState::kRejected);
  EXPECT_EQ(sched.request(bad).error, ServeError::kDeadlineNegative);
  EXPECT_NE(sched.request(bad).error_detail.find("-1"), std::string::npos);
  RequestParams none;
  none.prompt = {1, 2, 3};
  none.max_new_tokens = 4;
  none.deadline_steps = 0;
  const auto ok = sched.submit(std::move(none));
  sched.run_until_idle();
  EXPECT_EQ(sched.request(ok).state, RequestState::kFinished);
  EXPECT_EQ(sched.request(ok).tokens.size(), 4u);
  EXPECT_EQ(sched.request(ok).error, ServeError::kNone);
}

TEST(Scheduler, CancelMidDecodeFreesSlabAndKeepsPartialOutput) {
  nn::TransformerLM model(tiny_arch());
  Scheduler sched(model);
  RequestParams p;
  p.prompt = {3, 1, 4};
  p.max_new_tokens = 12;
  const auto id = sched.submit(std::move(p));
  sched.step();
  sched.step();
  sched.step();
  EXPECT_EQ(sched.pool().live(), 1u);
  EXPECT_TRUE(sched.cancel(id));
  sched.step();  // cancellation lands at the step boundary
  const auto rec = sched.request(id);
  EXPECT_EQ(rec.state, RequestState::kCancelled);
  EXPECT_EQ(rec.tokens.size(), 3u);  // one token per completed step
  EXPECT_EQ(sched.pool().live(), 0u);
  EXPECT_EQ(sched.pool().used_tokens(), 0);
  EXPECT_EQ(sched.in_flight(), 0u);
  EXPECT_FALSE(sched.cancel(id));  // already terminal
  EXPECT_FALSE(sched.cancel(12345));
}

TEST(Scheduler, PoolExhaustionQueuesUntilRetirementFreesSlabs) {
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.kv_budget_tokens = 8;  // exactly one {prompt 4, max_new 5} request
  Scheduler sched(model, cfg);
  RequestParams p;
  p.prompt = {1, 2, 3, 4};
  p.max_new_tokens = 5;  // footprint 8
  const auto a = sched.submit(RequestParams(p));
  const auto b = sched.submit(RequestParams(p));
  sched.step();
  EXPECT_EQ(sched.request(a).state, RequestState::kRunning);
  EXPECT_EQ(sched.request(b).state, RequestState::kQueued);
  EXPECT_EQ(sched.pool().used_tokens(), 8);
  while (sched.step()) {
    EXPECT_LE(sched.pool().used_tokens(), sched.pool().budget_tokens());
  }
  EXPECT_EQ(sched.request(a).state, RequestState::kFinished);
  EXPECT_EQ(sched.request(b).state, RequestState::kFinished);
  // b could only start after a retired and returned its slab.
  EXPECT_GE(sched.request(b).start_step, sched.request(a).finish_step);
  EXPECT_EQ(sched.request(b).tokens, sched.request(a).tokens);  // digital
  EXPECT_EQ(sched.pool().high_water_tokens(), 8);
  // Idle residency is exactly the published prefix rows (a's prompt may
  // remain cached for the next request on its stream) — anything above
  // that would be a leaked slab.
  EXPECT_EQ(sched.pool().used_tokens(), sched.pool().prefix_tokens());
}

TEST(Scheduler, PoolExhaustionRejectsWhenConfigured) {
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.kv_budget_tokens = 8;
  cfg.reject_on_pool_full = true;
  Scheduler sched(model, cfg);
  RequestParams p;
  p.prompt = {1, 2, 3, 4};
  p.max_new_tokens = 5;
  const auto a = sched.submit(RequestParams(p));
  const auto b = sched.submit(RequestParams(p));
  sched.step();
  EXPECT_EQ(sched.request(a).state, RequestState::kRunning);
  EXPECT_EQ(sched.request(b).state, RequestState::kRejected);
  EXPECT_EQ(sched.request(b).error, ServeError::kPoolExhausted);
  EXPECT_TRUE(is_transient(sched.request(b).error));
  sched.run_until_idle();
  EXPECT_EQ(sched.request(a).state, RequestState::kFinished);
}

TEST(Scheduler, QueueCapacityRejectsOverflow) {
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.queue_capacity = 2;
  Scheduler sched(model, cfg);
  RequestParams p;
  p.prompt = {1, 2};
  p.max_new_tokens = 2;
  sched.submit(RequestParams(p));
  sched.submit(RequestParams(p));
  const auto c = sched.submit(RequestParams(p));
  EXPECT_EQ(sched.request(c).state, RequestState::kRejected);
  EXPECT_EQ(sched.request(c).error, ServeError::kQueueFull);
}

TEST(Scheduler, CancelledQueuedRequestsLeaveTheQueueAtOnce) {
  // A full batch with two queued requests, both cancelled: after the
  // next step nothing waits, so in_flight() counts only the running one
  // and the queue has room for a new submission.
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.max_batch = 1;
  cfg.queue_capacity = 2;
  Scheduler sched(model, cfg);
  RequestParams p;
  p.prompt = {1, 2};
  p.max_new_tokens = 6;
  const auto running = sched.submit(RequestParams(p));
  sched.step();
  const auto b = sched.submit(RequestParams(p));
  const auto c = sched.submit(RequestParams(p));
  EXPECT_TRUE(sched.cancel(b));
  EXPECT_TRUE(sched.cancel(c));
  sched.step();
  EXPECT_EQ(sched.request(running).state, RequestState::kRunning);
  EXPECT_EQ(sched.request(b).state, RequestState::kCancelled);
  EXPECT_EQ(sched.request(c).state, RequestState::kCancelled);
  EXPECT_EQ(sched.in_flight(), 1u);
  EXPECT_EQ(sched.audit_snapshot().queued, 0u);
  const auto d = sched.submit(RequestParams(p));
  EXPECT_EQ(sched.request(d).state, RequestState::kQueued);
  EXPECT_EQ(sched.request(d).error, ServeError::kNone);
  sched.run_until_idle();
  EXPECT_EQ(sched.request(d).state, RequestState::kFinished);
}

TEST(Scheduler, DeadlineExpiryWhileQueuedAndWhileRunning) {
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.kv_budget_tokens = 8;  // one slab: the second request starves
  Scheduler sched(model, cfg);
  RequestParams hog;
  hog.prompt = {1, 2, 3, 4};
  hog.max_new_tokens = 5;
  hog.deadline_steps = 3;  // expires mid-decode
  const auto a = sched.submit(std::move(hog));
  RequestParams starved;
  starved.prompt = {5, 6, 7, 8};
  starved.max_new_tokens = 5;
  starved.deadline_steps = 2;  // expires while pool-blocked in the queue
  const auto b = sched.submit(std::move(starved));
  sched.run_until_idle();
  const auto ra = sched.request(a);
  EXPECT_EQ(ra.state, RequestState::kExpired);
  EXPECT_FALSE(ra.tokens.empty());              // partial output kept
  EXPECT_LT(static_cast<int>(ra.tokens.size()), 5);
  const auto rb = sched.request(b);
  EXPECT_EQ(rb.state, RequestState::kExpired);
  EXPECT_TRUE(rb.tokens.empty());
  EXPECT_EQ(sched.pool().used_tokens(), 0);
  EXPECT_EQ(sched.metrics().expired, 2);
}

TEST(Scheduler, BudgetNeverExceededUnderLoad) {
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.max_batch = 3;
  cfg.kv_budget_tokens = 20;
  Scheduler sched(model, cfg);
  for (int i = 0; i < 7; ++i) {
    RequestParams p;
    p.prompt.assign(static_cast<std::size_t>(2 + i % 4), 1 + i);
    p.max_new_tokens = 3 + i % 5;
    sched.submit(std::move(p));
  }
  while (sched.step()) {
    ASSERT_LE(sched.pool().used_tokens(), 20);
    ASSERT_LE(static_cast<std::int64_t>(sched.pool().live()), 3);
  }
  const Metrics m = sched.metrics();
  EXPECT_EQ(m.finished, 7);
  EXPECT_LE(m.kv_high_water_tokens, 20);
  EXPECT_EQ(m.kv_used_tokens, m.kv_prefix_tokens);  // only published rows stay
  EXPECT_LE(m.max_occupancy, 3);
  EXPECT_GT(m.mean_occupancy(), 1.0);  // batching actually happened
  EXPECT_GT(m.generated_tokens, 0);
  // Every record is terminal and consistent.
  EXPECT_EQ(sched.completed().size(), 7u);
}

// --- retry / backoff --------------------------------------------------

TEST(Scheduler, PoolExhaustionRetriesWithBackoffThenFinishes) {
  // reject_on_pool_full + a RetryPolicy: the blocked request is NOT
  // rejected; it backs off, retries, and finishes once the hog retires.
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.kv_budget_tokens = 8;
  cfg.reject_on_pool_full = true;
  cfg.retry.max_attempts = 8;
  cfg.retry.backoff_base_steps = 1;
  cfg.retry.jitter_steps = 2;
  Scheduler sched(model, cfg);
  RequestParams p;
  p.prompt = {1, 2, 3, 4};
  p.max_new_tokens = 5;  // footprint 8 == whole budget
  const auto a = sched.submit(RequestParams(p));
  const auto b = sched.submit(RequestParams(p));
  sched.run_until_idle();
  EXPECT_EQ(sched.request(a).state, RequestState::kFinished);
  const auto rb = sched.request(b);
  EXPECT_EQ(rb.state, RequestState::kFinished);
  EXPECT_GT(rb.attempts, 1);
  EXPECT_EQ(rb.tokens, sched.request(a).tokens);  // digital, same prompt
  const Metrics m = sched.metrics();
  EXPECT_GT(m.retries, 0);
  EXPECT_EQ(m.rejected, 0);
  EXPECT_EQ(sched.pool().total_acquires(), sched.pool().total_releases());
}

TEST(Scheduler, RetryBudgetExhaustedRejectsWithStructuredCode) {
  // A hog that outlives every retry: the contender must end rejected
  // with kRetryBudgetExhausted (not the bare kPoolExhausted), after
  // exactly max_attempts scheduling attempts.
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.kv_budget_tokens = 28;
  cfg.reject_on_pool_full = true;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base_steps = 1;
  cfg.retry.backoff_cap_steps = 2;  // retries land while the hog still runs
  Scheduler sched(model, cfg);
  RequestParams hog;
  hog.prompt = {1, 2, 3, 4};
  hog.max_new_tokens = 25;  // footprint 28: the whole pool, for 25 steps
  const auto a = sched.submit(std::move(hog));
  RequestParams contender;
  contender.prompt = {5, 6, 7, 8};
  contender.max_new_tokens = 5;
  const auto b = sched.submit(std::move(contender));
  sched.run_until_idle();
  EXPECT_EQ(sched.request(a).state, RequestState::kFinished);
  const auto rb = sched.request(b);
  EXPECT_EQ(rb.state, RequestState::kRejected);
  EXPECT_EQ(rb.error, ServeError::kRetryBudgetExhausted);
  EXPECT_EQ(rb.attempts, 3);
  EXPECT_EQ(sched.metrics().retries, 2);  // attempts 2 and 3
  EXPECT_EQ(sched.metrics().rejected_with(ServeError::kRetryBudgetExhausted),
            1);
}

TEST(Scheduler, RetryScheduleIsBitReproducible) {
  // Same seed, same workload -> identical attempt counts and identical
  // step-clock history, jitter included (it is drawn from a
  // counter-keyed stream, not a shared RNG).
  auto run = [] {
    nn::TransformerLM model(tiny_arch());
    SchedulerConfig cfg;
    cfg.seed = 4242;
    cfg.kv_budget_tokens = 8;
    cfg.reject_on_pool_full = true;
    cfg.retry.max_attempts = 6;
    cfg.retry.backoff_base_steps = 1;
    cfg.retry.jitter_steps = 3;
    Scheduler sched(model, cfg);
    RequestParams p;
    p.prompt = {1, 2, 3, 4};
    p.max_new_tokens = 5;
    std::vector<std::int64_t> ids;
    for (int i = 0; i < 3; ++i) ids.push_back(sched.submit(RequestParams(p)));
    sched.run_until_idle();
    std::vector<std::int64_t> history;
    for (const auto id : ids) {
      const auto rec = sched.request(id);
      history.push_back(rec.attempts);
      history.push_back(rec.start_step);
      history.push_back(rec.finish_step);
      history.push_back(static_cast<std::int64_t>(rec.state));
    }
    return history;
  };
  EXPECT_EQ(run(), run());
}

// --- KV pool exhaustion / recovery property ---------------------------

TEST(KvCachePool, ExhaustionRecoveryLeaksNothing) {
  // Property: fill the pool to its budget, retire/cancel the leases in
  // an arbitrary mix, and the pool must re-admit new work with zero
  // leaked slabs and stable high-water accounting.
  KvCachePool pool(/*budget_tokens=*/24, /*bytes_per_token=*/4);
  std::vector<nn::KvCache*> leases;
  for (int i = 0; i < 4; ++i) {
    nn::KvCache* c = pool.acquire(6);
    ASSERT_NE(c, nullptr);
    leases.push_back(c);
  }
  EXPECT_EQ(pool.used_tokens(), 24);
  EXPECT_EQ(pool.acquire(1), nullptr);  // budget exhausted
  EXPECT_EQ(pool.high_water_tokens(), 24);
  // Release a mix (reverse order: exercises non-LIFO slab reuse).
  pool.release(leases[3]);
  pool.release(leases[0]);
  EXPECT_EQ(pool.used_tokens(), 12);
  // Re-admission succeeds and recycles the freed slabs.
  nn::KvCache* again = pool.acquire(12);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(pool.used_tokens(), 24);
  EXPECT_EQ(pool.high_water_tokens(), 24);  // never above budget
  pool.release(again);
  pool.release(leases[1]);
  pool.release(leases[2]);
  EXPECT_EQ(pool.used_tokens(), 0);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.total_acquires(), 5);
  EXPECT_EQ(pool.total_releases(), 5);
  // Double release of a retired lease is a hard error, not a leak.
  EXPECT_THROW(pool.release(leases[0]), std::invalid_argument);
}

TEST(Scheduler, PoolRecoveryAfterExhaustionUnderServing) {
  // End-to-end version of the property above: saturate the scheduler's
  // pool, cancel half the load mid-decode, and verify the freed budget
  // re-admits the rest — with the acquire/release ledger balanced.
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.max_batch = 6;
  cfg.kv_budget_tokens = 16;  // two {4+5-1=8}-token footprints
  Scheduler sched(model, cfg);
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 6; ++i) {
    RequestParams p;
    p.prompt = {1 + i, 2, 3, 4};
    p.max_new_tokens = 5;
    ids.push_back(sched.submit(std::move(p)));
  }
  sched.step();  // admits exactly two
  EXPECT_EQ(sched.pool().used_tokens(), 16);
  sched.cancel(ids[0]);
  sched.cancel(ids[1]);
  sched.run_until_idle();
  for (std::size_t i = 2; i < ids.size(); ++i) {
    EXPECT_EQ(sched.request(ids[i]).state, RequestState::kFinished) << i;
  }
  EXPECT_EQ(sched.pool().used_tokens(), sched.pool().prefix_tokens());
  EXPECT_EQ(sched.pool().live(), 0u);
  EXPECT_EQ(sched.pool().total_acquires(), sched.pool().total_releases());
  EXPECT_EQ(sched.pool().high_water_tokens(), 16);
}

// --- maintenance windows ----------------------------------------------

/// Watchdog monitor that takes an action at every inspection — the
/// deterministic trigger for maintenance windows.
runtime::MonitorConfig trigger_happy() {
  runtime::MonitorConfig mcfg;
  mcfg.policy = runtime::RefreshPolicy::kWatchdog;
  mcfg.flag_rate_budget = -1.0;           // every window is "over budget"
  mcfg.fallback_after_refreshes = 100000;  // never drop to digital
  return mcfg;
}

TEST(ServeMaintenance, WindowServesDegradedAndDropsNoRequest) {
  // The acceptance property: a maintenance window opening mid-serve
  // never deadlocks and never drops a request — in-flight requests
  // finish via the digital bypass with their degraded tokens recorded,
  // queued requests are admitted after the window closes.
  util::ThreadPool::global().resize(1);
  cim::TileConfig tile = cim::TileConfig::ideal();
  tile.abft_checksum = true;
  nn::TransformerLM model = make_analog_model(tile);
  runtime::IntegrityMonitor monitor(model, /*deploy_seed=*/4040,
                                    trigger_happy());
  SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.monitor = &monitor;
  cfg.inspect_every = 1;
  cfg.maintenance_window_steps = 3;
  Scheduler sched(model, cfg);
  std::vector<std::int64_t> ids;
  for (const Job& j : kJobs) {  // 4 jobs > max_batch: queue is exercised
    RequestParams p;
    p.prompt = j.prompt;
    p.max_new_tokens = j.max_new;
    p.stream_seed = j.stream;
    ids.push_back(sched.submit(std::move(p)));
  }
  // Bounded loop instead of run_until_idle: a deadlock fails the test
  // rather than hanging it.
  bool saw_window = false;
  int guard = 0;
  while (sched.step()) {
    saw_window |= sched.in_maintenance();
    ASSERT_LT(++guard, 2000) << "maintenance window deadlocked the loop";
  }
  EXPECT_TRUE(saw_window);
  std::int64_t total_degraded = 0;
  for (const auto id : ids) {
    const auto rec = sched.request(id);
    EXPECT_EQ(rec.state, RequestState::kFinished) << "request " << id;
    EXPECT_EQ(rec.tokens.size(), 6u);
    total_degraded += rec.degraded_tokens;
    EXPECT_LE(rec.degraded_tokens,
              static_cast<std::int64_t>(rec.tokens.size()));
  }
  const Metrics m = sched.metrics();
  EXPECT_GT(m.maintenance_windows, 0);
  EXPECT_GT(m.maintenance_steps, 0);
  EXPECT_GT(total_degraded, 0);  // the window really served degraded
  EXPECT_EQ(m.degraded_tokens, total_degraded);
  EXPECT_TRUE(model.is_analog());  // bypass was non-destructive
  for (auto* lin : model.linear_layers()) {
    EXPECT_FALSE(lin->digital_bypass());  // and switched back off
  }
  EXPECT_EQ(sched.pool().total_acquires(), sched.pool().total_releases());
}

TEST(ServeMaintenance, RequeuePolicyDrainsAndRetriesWithoutDropping) {
  // kRequeue: requests with retry budget are drained back to the queue
  // when a window opens (their partial output discarded to
  // wasted_tokens); once the budget is spent they finish on the bypass.
  // Either way every request terminates kFinished.
  util::ThreadPool::global().resize(1);
  cim::TileConfig tile = cim::TileConfig::ideal();
  tile.abft_checksum = true;
  nn::TransformerLM model = make_analog_model(tile);
  runtime::IntegrityMonitor monitor(model, /*deploy_seed=*/4041,
                                    trigger_happy());
  SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.monitor = &monitor;
  cfg.inspect_every = 1;
  cfg.maintenance_window_steps = 2;
  cfg.maintenance_policy = MaintenancePolicy::kRequeue;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base_steps = 1;
  Scheduler sched(model, cfg);
  std::vector<std::int64_t> ids;
  for (const Job& j : kJobs) {
    RequestParams p;
    p.prompt = j.prompt;
    p.max_new_tokens = j.max_new;
    p.stream_seed = j.stream;
    ids.push_back(sched.submit(std::move(p)));
  }
  int guard = 0;
  while (sched.step()) {
    ASSERT_LT(++guard, 4000) << "requeue policy deadlocked the loop";
  }
  bool saw_retry = false;
  for (const auto id : ids) {
    const auto rec = sched.request(id);
    EXPECT_EQ(rec.state, RequestState::kFinished) << "request " << id;
    EXPECT_EQ(rec.tokens.size(), 6u);
    saw_retry |= rec.attempts > 1;
  }
  EXPECT_TRUE(saw_retry);
  const Metrics m = sched.metrics();
  EXPECT_GT(m.retries, 0);
  EXPECT_GT(m.wasted_tokens, 0);
  EXPECT_EQ(m.rejected, 0);  // drained, retried — never dropped
  EXPECT_EQ(sched.pool().total_acquires(), sched.pool().total_releases());
}

TEST(ServeMaintenance, RejectDuringMaintenanceShedsLoad) {
  util::ThreadPool::global().resize(1);
  cim::TileConfig tile = cim::TileConfig::ideal();
  tile.abft_checksum = true;
  nn::TransformerLM model = make_analog_model(tile);
  runtime::IntegrityMonitor monitor(model, /*deploy_seed=*/4042,
                                    trigger_happy());
  SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.monitor = &monitor;
  cfg.inspect_every = 1;
  cfg.maintenance_window_steps = 4;
  cfg.reject_during_maintenance = true;
  Scheduler sched(model, cfg);
  RequestParams p;
  p.prompt = {3, 1, 4};
  p.max_new_tokens = 6;
  sched.submit(RequestParams(p));
  sched.step();  // busy step -> monitor action -> window opens
  ASSERT_TRUE(sched.in_maintenance());
  const auto shed = sched.submit(RequestParams(p));
  EXPECT_EQ(sched.request(shed).state, RequestState::kRejected);
  EXPECT_EQ(sched.request(shed).error, ServeError::kMaintenance);
  sched.run_until_idle();
  EXPECT_EQ(sched.metrics().rejected_with(ServeError::kMaintenance), 1);
}

TEST(ServeMaintenance, ZeroWindowKeepsLegacyBitIdenticalBehavior) {
  // maintenance_window_steps = 0 (the default) must reproduce the
  // pre-maintenance scheduler exactly: monitor actions are free, no
  // window opens, nothing is flagged degraded. This is what keeps the
  // existing serve goldens valid.
  util::ThreadPool::global().resize(1);
  cim::TileConfig tile = cim::TileConfig::ideal();
  tile.abft_checksum = true;
  nn::TransformerLM model = make_analog_model(tile);
  runtime::IntegrityMonitor monitor(model, /*deploy_seed=*/4043,
                                    trigger_happy());
  SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.monitor = &monitor;
  cfg.inspect_every = 1;
  Scheduler sched(model, cfg);
  RequestParams p;
  p.prompt = {3, 1, 4};
  p.max_new_tokens = 6;
  const auto id = sched.submit(std::move(p));
  bool ever_maintenance = false;
  while (sched.step()) ever_maintenance |= sched.in_maintenance();
  EXPECT_FALSE(ever_maintenance);
  const Metrics m = sched.metrics();
  EXPECT_GT(m.monitor_actions, 0);
  EXPECT_EQ(m.maintenance_windows, 0);
  EXPECT_EQ(m.maintenance_steps, 0);
  EXPECT_EQ(m.degraded_tokens, 0);
  EXPECT_EQ(sched.request(id).degraded_tokens, 0);
}

// --- integrity-monitor interaction -----------------------------------

TEST(ServeIntegrity, MidServeAbftActionsDoNotCorruptInFlightOutputs) {
  // Ideal (noise-free) tiles with ABFT checksum columns: re-reads and
  // refreshes are output-identity, so a serving run under an
  // aggressively-triggering watchdog must produce bit-identical tokens
  // to an unmonitored run — the actions may not disturb in-flight
  // requests.
  util::ThreadPool::global().resize(1);
  cim::TileConfig tile = cim::TileConfig::ideal();
  tile.abft_checksum = true;
  auto run = [&](bool monitored, std::int64_t* actions_out) {
    nn::TransformerLM model = make_analog_model(tile);
    runtime::MonitorConfig mcfg;
    mcfg.policy = runtime::RefreshPolicy::kWatchdog;
    mcfg.flag_rate_budget = -1.0;  // every window is "over budget"
    mcfg.fallback_after_refreshes = 1000;  // never reach the digital rung
    runtime::IntegrityMonitor monitor(model, /*deploy_seed=*/4040, mcfg);
    SchedulerConfig cfg;
    cfg.max_batch = 3;
    cfg.record_logits = true;
    if (monitored) {
      cfg.monitor = &monitor;
      cfg.inspect_every = 1;
    }
    Scheduler sched(model, cfg);
    std::vector<std::int64_t> ids;
    for (const Job& j : kJobs) {
      RequestParams p;
      p.prompt = j.prompt;
      p.max_new_tokens = j.max_new;
      p.stream_seed = j.stream;
      ids.push_back(sched.submit(std::move(p)));
    }
    sched.run_until_idle();
    if (monitored) {
      EXPECT_GT(sched.metrics().monitor_inspections, 0);
      EXPECT_GT(sched.metrics().monitor_actions, 0);
      EXPECT_GT(monitor.total_rereads(), 0);
      EXPECT_GT(monitor.total_refreshes(), 0);
      EXPECT_EQ(monitor.total_fallbacks(), 0);
      EXPECT_TRUE(model.is_analog());
      if (actions_out != nullptr) {
        *actions_out = sched.metrics().monitor_actions;
      }
    }
    std::vector<RequestRecord> out;
    for (const auto id : ids) out.push_back(sched.request(id));
    return out;
  };
  const auto plain = run(false, nullptr);
  std::int64_t actions = 0;
  const auto healed = run(true, &actions);
  ASSERT_GT(actions, 0);
  for (std::size_t j = 0; j < kJobs.size(); ++j) {
    EXPECT_EQ(healed[j].state, RequestState::kFinished);
    EXPECT_EQ(healed[j].tokens, plain[j].tokens) << "job " << j;
    EXPECT_TRUE(logits_bitwise_equal(healed[j], plain[j])) << "job " << j;
  }
}

TEST(Scheduler, CancelAtEveryStepReleasesPoolExactlyOnce) {
  // cancel() may land at any step boundary relative to a request's
  // natural retirement — including the very step it finishes on, and
  // after it is already terminal. Whatever the interleaving, each slab
  // must go back to the pool exactly once: KvCachePool::release throws
  // on a non-live lease, so a double release aborts the test, and a
  // missed release leaves used_tokens above zero.
  nn::TransformerLM model(tiny_arch());
  for (int k = 0;; ++k) {
    SchedulerConfig cfg;
    cfg.max_batch = 3;
    Scheduler sched(model, cfg);
    std::vector<std::int64_t> ids;
    for (int i = 0; i < 4; ++i) {  // one more than max_batch: queue too
      RequestParams p;
      p.prompt = {1 + i, 2, 3};
      p.max_new_tokens = 3 + i;
      ids.push_back(sched.submit(std::move(p)));
    }
    for (int s = 0; s < k; ++s) sched.step();
    bool any_live = false;
    for (const auto id : ids) {
      const RequestState st = sched.request(id).state;
      any_live |= st == RequestState::kQueued || st == RequestState::kRunning;
      sched.cancel(id);  // false on terminal ids; must never throw
    }
    ASSERT_NO_THROW(sched.run_until_idle()) << "cancel at step " << k;
    EXPECT_EQ(sched.pool().live(), 0u) << "cancel at step " << k;
    EXPECT_EQ(sched.pool().used_tokens(), sched.pool().prefix_tokens())
        << "cancel at step " << k;
    EXPECT_EQ(sched.in_flight(), 0u) << "cancel at step " << k;
    for (const auto id : ids) {
      const RequestState st = sched.request(id).state;
      EXPECT_TRUE(st == RequestState::kCancelled ||
                  st == RequestState::kFinished)
          << "cancel at step " << k;
    }
    if (!any_live) break;  // k passed every natural retirement: done
  }
}

TEST(Scheduler, ConcurrentCancelRacingStepsNeverDoubleReleases) {
  // submit()/cancel() are allowed to race step() from other threads;
  // hammer cancels over the whole run and require the same exactly-once
  // release invariant at the end.
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.max_batch = 4;
  Scheduler sched(model, cfg);
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 6; ++i) {
    RequestParams p;
    p.prompt = {1 + i, 2};
    p.max_new_tokens = 8;
    ids.push_back(sched.submit(std::move(p)));
  }
  std::thread canceller([&sched, &ids] {
    for (int round = 0; round < 200; ++round) {
      for (const auto id : ids) sched.cancel(id);
    }
  });
  sched.run_until_idle();
  canceller.join();
  EXPECT_EQ(sched.pool().live(), 0u);
  EXPECT_EQ(sched.pool().used_tokens(), sched.pool().prefix_tokens());
  EXPECT_EQ(sched.in_flight(), 0u);
  for (const auto& rec : sched.completed()) {
    EXPECT_TRUE(rec.state == RequestState::kCancelled ||
                rec.state == RequestState::kFinished);
  }
}

TEST(Scheduler, ConcurrentSubmitAndCancelRacingStepLoop) {
  // The full thread contract at once: several submitter threads and a
  // canceller hammer the scheduler WHILE the owning thread runs the
  // step() loop (not just before it, as the tests above do). Under tsan
  // this is the data-race probe for the submit/cancel/step locking;
  // under any build it must end with every request terminal and every
  // KV lease released exactly once.
  nn::TransformerLM model(tiny_arch());
  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 32;  // bounded: submitters also hit kQueueFull
  cfg.record_events = true;
  Scheduler sched(model, cfg);

  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 20;
  std::atomic<bool> stop{false};
  std::atomic<int> submitted{0};
  std::mutex ids_m;
  std::vector<std::int64_t> ids;

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RequestParams p;
        p.prompt = {1 + t, 1 + (i % 7), 3};
        p.max_new_tokens = 4 + (i % 5);
        const std::int64_t id = sched.submit(std::move(p));
        ++submitted;
        {
          std::lock_guard<std::mutex> lock(ids_m);
          ids.push_back(id);
        }
      }
    });
  }
  std::thread canceller([&] {
    while (!stop.load()) {
      std::vector<std::int64_t> snapshot;
      {
        std::lock_guard<std::mutex> lock(ids_m);
        snapshot = ids;
      }
      // Cancel a pseudo-random third: enough churn to race retirement.
      for (std::size_t i = 0; i < snapshot.size(); i += 3) {
        sched.cancel(snapshot[i]);
      }
    }
  });

  // Step concurrently with the submissions until everything lands. The
  // queue holds exactly the kQueued requests after every step, whatever
  // the submitters and the canceller did in between.
  std::int64_t first_queue_mismatch = -1;
  while (submitted.load() < kSubmitters * kPerThread ||
         sched.in_flight() > 0) {
    sched.step();
    sched.drain_events();  // keep the event log bounded, as a server would
    const AuditSnapshot s = sched.audit_snapshot();
    const auto queued_records = static_cast<std::size_t>(
        std::count(s.states.begin(), s.states.end(), RequestState::kQueued));
    if (s.queued != queued_records && first_queue_mismatch < 0) {
      first_queue_mismatch = s.step;
    }
  }
  stop.store(true);
  for (auto& t : submitters) t.join();
  canceller.join();
  sched.step();  // apply any cancel that landed after the last step
  sched.drain_events();

  EXPECT_EQ(sched.in_flight(), 0u);
  EXPECT_EQ(sched.pool().live(), 0u);
  EXPECT_EQ(sched.pool().used_tokens(), sched.pool().prefix_tokens());
  const AuditSnapshot snap = sched.audit_snapshot();
  EXPECT_EQ(snap.pool_acquires, snap.pool_releases);
  int terminal = 0;
  for (const std::int64_t id : ids) {
    const RequestRecord rec = sched.request(id);
    EXPECT_TRUE(rec.state == RequestState::kFinished ||
                rec.state == RequestState::kCancelled ||
                rec.state == RequestState::kRejected)
        << "request " << id << " not terminal";
    ++terminal;
  }
  EXPECT_EQ(terminal, kSubmitters * kPerThread);
  EXPECT_EQ(first_queue_mismatch, -1)
      << "queue size != kQueued records at that step";
}

TEST(ServeMetrics, PercentileAndDumpsAreWellFormed) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({3.0}, 0.95), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  nn::TransformerLM model(tiny_arch());
  Scheduler sched(model);
  RequestParams p;
  p.prompt = {1, 2, 3};
  p.max_new_tokens = 4;
  sched.submit(std::move(p));
  sched.run_until_idle();
  const Metrics m = sched.metrics();
  EXPECT_EQ(m.finished, 1);
  const std::string text = m.to_string();
  EXPECT_NE(text.find("serving metrics"), std::string::npos);
  const std::string json = m.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"finished\":1"), std::string::npos);
  EXPECT_NE(json.find("\"kv_budget_tokens\":"), std::string::npos);
}

TEST(ServeMetrics, FreshMetricsDumpIsSafe) {
  // A dump before any traffic exercises every divide-by-count and
  // empty-percentile guard; all aggregates must read as exact zeros.
  const Metrics m;
  EXPECT_DOUBLE_EQ(m.mean_occupancy(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean_queue_wait_steps(), 0.0);
  EXPECT_DOUBLE_EQ(m.tokens_per_s(), 0.0);
  EXPECT_DOUBLE_EQ(m.ttft_p50_s(), 0.0);
  EXPECT_DOUBLE_EQ(m.ttft_p95_s(), 0.0);
  const std::string text = m.to_string();
  EXPECT_NE(text.find("serving metrics"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
  const std::string json = m.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"ttft_p50_s\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tokens_per_s\":0"), std::string::npos);
}

TEST(ServeMetrics, DumpSortsTtftSamplesAtMostOnce) {
  // Regression for the old percentile(): by-value vector copy + one
  // re-sort per quantile. Both ttft quantiles in a dump must now come
  // from a single sorted pass, and empty samples must not sort at all.
  Metrics m;
  m.ttft_s = {0.4, 0.1, 0.3, 0.2, 0.5};
  std::int64_t before = percentile_sort_count();
  const std::string text = m.to_string();
  EXPECT_EQ(percentile_sort_count() - before, 1);
  EXPECT_NE(text.find("p50 0.3000"), std::string::npos);
  before = percentile_sort_count();
  m.to_json();
  EXPECT_EQ(percentile_sort_count() - before, 1);
  m.ttft_s.clear();
  before = percentile_sort_count();
  m.to_string();
  m.to_json();
  EXPECT_DOUBLE_EQ(m.ttft_p50_s(), 0.0);
  EXPECT_EQ(percentile_sort_count(), before);
}

}  // namespace
}  // namespace nora::serve
