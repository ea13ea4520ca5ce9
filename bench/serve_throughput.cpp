// Continuous-batching serving throughput and latency.
//
// Phase 1 (criterion): the same request set is served twice through the
// analog-deployed model — one request at a time (max_batch=1) and
// continuously batched (max_batch=8). Batching shares every analog tile
// pass across the whole batch and fans the per-row work items over the
// thread pool, so tokens/s must scale. The acceptance criterion
// (batched >= 2x sequential at mean occupancy >= 4) is only meaningful
// when the pool actually has parallel hardware: it is enforced at >= 4
// effective threads (the GitHub CI runner class); below that the bench
// still runs and instead enforces a no-regression floor, loudly saying
// so. The determinism cross-check (batched output bit-identical to
// sequential output) is hardware-independent and always enforced.
//
// Phase 2: open-loop Poisson arrivals replayed deterministically at
// several offered loads; reports occupancy, tokens/s and p50/p95 TTFT —
// on the wall clock AND on the simulated-hardware clock (the timing
// co-simulator replays each step's op trace against DeviceCosts-derived
// resource models; sim columns are replay-exact at any thread count).
//
//   ./serve_throughput [--model=opt-1.3b-sim] [--threads=N] [--batch=8]
//                      [--requests=24] [--tokens=20] [--smoke]
//                      [--pipeline-depth=1] [--tile-read-ns=100] ...
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/nora.hpp"
#include "cost/device_costs_cli.hpp"
#include "eval/evaluator.hpp"
#include "model/zoo.hpp"
#include "serve/scheduler.hpp"
#include "timing/hw_model.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace nora;

namespace {

struct RunResult {
  serve::Metrics metrics;
  double wall_s = 0.0;  // end-to-end serving wall time
  std::vector<std::vector<int>> tokens;  // per request, submit order
  double tokens_per_s() const {
    return wall_s > 0.0
               ? static_cast<double>(metrics.generated_tokens) / wall_s
               : 0.0;
  }
};

std::vector<std::vector<int>> make_prompts(const eval::SynthLambada& task,
                                           int n) {
  std::vector<std::vector<int>> prompts;
  for (int i = 0; i < n; ++i) {
    prompts.push_back(
        task.make_example("test", static_cast<std::uint64_t>(i)).tokens);
  }
  return prompts;
}

/// Serve all prompts, submitted upfront (closed-loop saturation).
RunResult run_saturated(nn::TransformerLM& model,
                        const std::vector<std::vector<int>>& prompts,
                        int max_batch, int n_tokens) {
  serve::SchedulerConfig cfg;
  cfg.max_batch = max_batch;
  serve::Scheduler sched(model, cfg);
  std::vector<std::int64_t> ids;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    serve::RequestParams p;
    p.prompt = prompts[i];
    p.max_new_tokens = n_tokens;
    // Fixed per-request streams: the sequential and batched runs must
    // produce bit-identical outputs (the serving determinism contract).
    p.stream_seed = 1000 + i;
    ids.push_back(sched.submit(std::move(p)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  sched.run_until_idle();
  RunResult r;
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.metrics = sched.metrics();
  for (const auto id : ids) r.tokens.push_back(sched.request(id).tokens);
  return r;
}

/// Open-loop: deterministic Poisson arrivals at `load` requests/step.
/// `streams` (optional) pins each request's noise stream — the prefix
/// phase uses it to make shared-prompt requests share (or not share) a
/// stream; null keeps the distinct per-request default.
RunResult run_poisson(nn::TransformerLM& model,
                      const std::vector<std::vector<int>>& prompts,
                      int max_batch, int n_tokens, double load,
                      std::uint64_t seed,
                      const std::vector<std::uint64_t>* streams = nullptr,
                      const timing::TimingConfig* timing = nullptr) {
  std::vector<std::int64_t> arrival_step(prompts.size());
  util::Rng rng(seed);
  double t = 0.0;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    t += -std::log(1.0 - rng.uniform()) / load;
    arrival_step[i] = static_cast<std::int64_t>(t);
  }
  serve::SchedulerConfig cfg;
  cfg.max_batch = max_batch;
  if (timing != nullptr) cfg.timing = *timing;
  serve::Scheduler sched(model, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t next = 0;
  bool busy = true;
  while (next < prompts.size() || busy) {
    while (next < prompts.size() &&
           arrival_step[next] <= sched.current_step()) {
      serve::RequestParams p;
      p.prompt = prompts[next];
      p.max_new_tokens = n_tokens;
      p.stream_seed = streams != nullptr ? (*streams)[next] : 2000 + next;
      sched.submit(std::move(p));
      ++next;
    }
    busy = sched.step();
    // The step clock only ticks while there is work; a fully drained
    // scheduler fast-forwards to the next arrival.
    if (!busy && next < prompts.size()) {
      arrival_step[next] = sched.current_step();
      busy = true;
    }
  }
  RunResult r;
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.metrics = sched.metrics();
  return r;
}

/// 80%-shared-prefix workload: four of every five requests extend one
/// common prompt head with a short unique tail (a system-prompt / multi-
/// turn shape); the rest are unique cold prompts. With `reuse` the
/// shared requests ride one noise stream — the precondition for KV
/// prefix-cache hits — and without it they get distinct streams, which
/// makes sharing impossible and gives the no-reuse baseline for the
/// SAME token workload.
struct PrefixWorkload {
  std::vector<std::vector<int>> prompts;
  std::vector<std::uint64_t> streams;
};

PrefixWorkload make_prefix_workload(
    const std::vector<std::vector<int>>& base, std::size_t head_tokens,
    bool reuse) {
  PrefixWorkload w;
  // A long shared head makes the workload prefill-heavy — the shape
  // where prompt reuse pays. Concatenate base prompts up to the target.
  std::vector<int> head;
  for (const auto& b : base) {
    head.insert(head.end(), b.begin(), b.end());
    if (head.size() >= head_tokens) break;
  }
  if (head.size() > head_tokens) head.resize(head_tokens);
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (i % 5 != 0) {  // 80% shared
      std::vector<int> p = head;
      p.push_back(head[i % head.size()]);
      p.push_back(head[(3 * i + 1) % head.size()]);
      w.prompts.push_back(std::move(p));
      w.streams.push_back(reuse ? 5000 : 6000 + i);
    } else {
      w.prompts.push_back(base[i]);
      w.streams.push_back(7000 + i);
    }
  }
  return w;
}

/// ADC conversions every analog layer has made so far: one per tile
/// column per tile MVM, retries included.
std::int64_t adc_reads(nn::TransformerLM& model) {
  std::int64_t n = 0;
  for (nn::Linear* lin : model.linear_layers()) {
    if (const cim::AnalogMatmul* a = lin->analog()) n += a->adc_reads();
  }
  return n;
}

/// ADC conversions a leased prompt row saves without retries: each
/// analog layer the row runs through reads all of its row blocks'
/// output columns. Serving runs the last block past its K/V append, and
/// the LM head, only on a prompt's last row, and a lease never covers
/// that row: so the row runs every block's QKV projection, and the out
/// projection and MLP of every block but the last.
std::int64_t adc_reads_per_leased_token(nn::TransformerLM& model) {
  std::int64_t n = 0;
  std::vector<nn::Linear*> linears;
  for (nn::TransformerBlock& blk : model.blocks()) {
    if (&blk == &model.blocks().back()) {
      linears.push_back(&blk.attention().qkv());
    } else {
      blk.collect_linears(linears);
    }
  }
  for (const nn::Linear* lin : linears) {
    if (const cim::AnalogMatmul* a = lin->analog()) {
      n += a->row_blocks() * a->out_dim();
    }
  }
  return n;
}

void deploy(nn::TransformerLM& model, const eval::SynthLambada& task,
            int threads) {
  model.to_digital();
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::paper_table2();
  opts.tile.n_threads = threads;
  opts.nora.enabled = true;
  core::deploy_analog(model, task, opts);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.get_flag("smoke");
  const std::string name = cli.get("model", "opt-1.3b-sim");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads =
      static_cast<int>(cli.get_int("threads", hw > 0 ? hw : 1));
  const int batch = static_cast<int>(cli.get_int("batch", 8));
  // Decode-heavy defaults (short prompt, long generation): prefill rows
  // parallelize even under sequential serving, so the batching win the
  // criterion measures lives almost entirely in the decode steps.
  const int n_requests =
      static_cast<int>(cli.get_int("requests", smoke ? 12 : 24));
  const int n_tokens =
      static_cast<int>(cli.get_int("tokens", smoke ? 16 : 20));
  // Timing co-sim for the Poisson phase: simulated-hardware latency
  // columns next to the wall-clock ones. Every DeviceCosts constant is
  // a flag (cost/device_costs_cli.hpp); depth 1 = unpipelined tiles.
  timing::TimingConfig sim_cfg;
  sim_cfg.enabled = true;
  sim_cfg.pipeline_depth =
      static_cast<int>(cli.get_int("pipeline-depth", 1));
  sim_cfg.costs = cost::device_costs_from_cli(cli);
  cli.check_unknown();

  const model::ModelSpec spec = model::spec_by_name(name);
  eval::SynthLambadaConfig task_cfg = spec.task;
  task_cfg.seq_len = spec.task.seq_len - n_tokens;  // decode headroom
  const eval::SynthLambada task(task_cfg);
  auto model = model::get_or_train(spec);
  const auto prompts = make_prompts(task, n_requests);

  std::printf(
      "Continuous-batching serving throughput — %s, NORA analog "
      "(Table II), %d requests x %d tokens, %d threads%s\n\n",
      name.c_str(), n_requests, n_tokens, threads, smoke ? ", smoke" : "");

  // --- phase 1: saturation speedup criterion -------------------------
  deploy(*model, task, threads);
  const RunResult seq = run_saturated(*model, prompts, /*max_batch=*/1,
                                      n_tokens);
  deploy(*model, task, threads);  // fresh tiles: independent measurement
  const RunResult bat = run_saturated(*model, prompts, batch, n_tokens);

  const double speedup =
      seq.tokens_per_s() > 0.0 ? bat.tokens_per_s() / seq.tokens_per_s()
                               : 0.0;
  const bool deterministic = seq.tokens == bat.tokens;

  util::Table table({"mode", "occupancy", "tok/s", "TTFT p50 (s)",
                     "TTFT p95 (s)", "KV high water (tok)"});
  auto add_mode = [&table](const char* mode, const RunResult& r) {
    table.add_row({mode, util::Table::num(r.metrics.mean_occupancy(), 2),
                   util::Table::num(r.tokens_per_s(), 1),
                   util::Table::num(r.metrics.ttft_p50_s(), 4),
                   util::Table::num(r.metrics.ttft_p95_s(), 4),
                   std::to_string(r.metrics.kv_high_water_tokens)});
  };
  add_mode("sequential (batch 1)", seq);
  add_mode("batched", bat);
  table.print();
  std::printf("\nbatched vs sequential speedup: %.2fx at mean occupancy "
              "%.2f\n",
              speedup, bat.metrics.mean_occupancy());
  std::printf("determinism cross-check (batched output bit-identical to "
              "sequential): %s\n\n",
              deterministic ? "PASS" : "FAIL");

  // --- phase 2: Poisson replay ---------------------------------------
  const std::vector<double> loads =
      smoke ? std::vector<double>{0.3} : std::vector<double>{0.15, 0.3, 0.6};
  util::Table ptable({"offered load (req/step)", "finished", "occupancy",
                      "tok/s", "queue wait (steps)", "TTFT p50 (s)",
                      "TTFT p95 (s)", "sim TTFT p50 (us)",
                      "sim TPOT p50 (us)", "sim goodput (tok/s)"});
  for (const double load : loads) {
    deploy(*model, task, threads);
    const RunResult r = run_poisson(*model, prompts, batch, n_tokens, load,
                                    /*seed=*/99, nullptr, &sim_cfg);
    ptable.add_row({util::Table::num(load, 2),
                    std::to_string(r.metrics.finished),
                    util::Table::num(r.metrics.mean_occupancy(), 2),
                    util::Table::num(r.tokens_per_s(), 1),
                    util::Table::num(r.metrics.mean_queue_wait_steps(), 2),
                    util::Table::num(r.metrics.ttft_p50_s(), 4),
                    util::Table::num(r.metrics.ttft_p95_s(), 4),
                    util::Table::num(r.metrics.sim_ttft_p50_us(), 1),
                    util::Table::num(r.metrics.sim_tpot_p50_us(), 2),
                    util::Table::num(r.metrics.sim_goodput_tokens_per_s(),
                                     0)});
  }
  std::printf("Poisson open-loop replay (deterministic arrival trace; sim "
              "columns are simulated-hardware time from the timing "
              "co-simulator):\n");
  ptable.print();
  ptable.write_csv("results/serve_throughput.csv");

  // --- phase 3: KV prefix-reuse criterion ----------------------------
  // Same 80%-shared-prefix Poisson workload twice: once with the shared
  // requests on one noise stream (prefix cache can share their head
  // rows) and once on distinct streams (sharing impossible). The tokens
  // generated are the same count, so the decode tok/s ratio is exactly
  // the wall-time won by not re-prefilling the shared head.
  // Prefill-heavy shape: shared head as long as max_seq allows after a
  // short generation, arrivals calm enough that a predecessor usually
  // retires (publishes) before the next shared request is admitted.
  const int p3_tokens = smoke ? 6 : 8;
  const std::size_t head_tokens = static_cast<std::size_t>(
      task_cfg.seq_len + n_tokens - p3_tokens - 2);
  const PrefixWorkload pw_cold =
      make_prefix_workload(prompts, head_tokens, false);
  const PrefixWorkload pw_warm =
      make_prefix_workload(prompts, head_tokens, true);
  deploy(*model, task, threads);
  const std::int64_t cold_reads0 = adc_reads(*model);
  const RunResult pcold = run_poisson(*model, pw_cold.prompts, batch,
                                      p3_tokens, 0.15, /*seed=*/77,
                                      &pw_cold.streams);
  const std::int64_t cold_reads = adc_reads(*model) - cold_reads0;
  deploy(*model, task, threads);
  const std::int64_t warm_reads0 = adc_reads(*model);
  const RunResult pwarm = run_poisson(*model, pw_warm.prompts, batch,
                                      p3_tokens, 0.15, /*seed=*/77,
                                      &pw_warm.streams);
  const std::int64_t warm_reads = adc_reads(*model) - warm_reads0;
  const double reuse_speedup =
      pcold.tokens_per_s() > 0.0 ? pwarm.tokens_per_s() / pcold.tokens_per_s()
                                 : 0.0;
  std::printf(
      "\n80%%-shared-prefix Poisson workload: no-reuse %.1f tok/s, "
      "prefix-reuse %.1f tok/s (%.2fx), %lld hits / %lld warm tokens, "
      "%lld published\n",
      pcold.tokens_per_s(), pwarm.tokens_per_s(), reuse_speedup,
      static_cast<long long>(pwarm.metrics.kv_prefix_hits),
      static_cast<long long>(pwarm.metrics.kv_prefix_hit_tokens),
      static_cast<long long>(pwarm.metrics.kv_prefix_published));

  std::printf("\nbatched metrics (saturation run):\n%s\n",
              bat.metrics.to_json().c_str());

  // --- acceptance ----------------------------------------------------
  bool ok = deterministic;
  if (!deterministic) {
    std::printf("FAIL: batching changed request outputs — the per-request "
                "noise-stream keying is broken.\n");
  }
  // Prefix reuse is a structural win (skipped prefill passes), so the
  // criterion holds at any thread count; no-reuse on the same workload
  // must also have produced zero hits, or the baseline is not cold.
  const bool reuse_ok = reuse_speedup >= 1.5 &&
                        pwarm.metrics.kv_prefix_hits > 0 &&
                        pcold.metrics.kv_prefix_hits == 0;
  std::printf("prefix-reuse criterion (>= 1.5x decode tok/s on the "
              "80%%-shared workload): %s\n",
              reuse_ok ? "PASS" : "FAIL");
  ok = ok && reuse_ok;
  // The same win, counted exactly: both legs serve the same tokens on
  // freshly deployed tiles without bound management (Table II), so
  // every row costs the same ADC reads and the warm leg must read
  // exactly the skipped prefix rows fewer. Host noise cannot flip it.
  const std::int64_t per_token = adc_reads_per_leased_token(*model);
  const std::int64_t hit_tokens = pwarm.metrics.kv_prefix_hit_tokens;
  const bool exact_ok = hit_tokens > 0 && pcold.metrics.kv_prefix_hits == 0 &&
                        cold_reads - warm_reads == hit_tokens * per_token;
  std::printf("exact prefix-reuse gate (cold - warm ADC reads %lld - %lld "
              "= %lld == %lld warm tokens x %lld reads/token): %s\n",
              static_cast<long long>(cold_reads),
              static_cast<long long>(warm_reads),
              static_cast<long long>(cold_reads - warm_reads),
              static_cast<long long>(hit_tokens),
              static_cast<long long>(per_token), exact_ok ? "PASS" : "FAIL");
  ok = ok && exact_ok;
  if (threads >= 4) {
    const bool fast = speedup >= 2.0 && bat.metrics.mean_occupancy() >= 4.0;
    std::printf("throughput criterion (>= 2.0x at occupancy >= 4, %d "
                "threads): %s\n",
                threads, fast ? "PASS" : "FAIL");
    ok = ok && fast;
  } else {
    // One- or two-core hosts cannot express the fan-out win; hold the
    // line at "batching must not cost throughput" and say so loudly.
    const bool no_regression = speedup >= 0.85;
    std::printf(
        "NOTE: only %d effective thread(s) — the 2x speedup criterion "
        "needs >= 4 (it measures thread-pool fan-out across the batch). "
        "Enforcing no-regression floor instead (>= 0.85x): %s\n",
        threads, no_regression ? "PASS" : "FAIL");
    ok = ok && no_regression;
  }
  return ok ? 0 : 1;
}
