// Timing co-simulation ablation: simulated hardware latency replayed
// over the serving stack, sweeping analog pipeline depth and the
// scheduler's batching policy.
//
// Phase 1 (reconciliation): per-layer latency of one forward pass from
// HwModel's exact in-order recurrence (tokens through FIFO DAC,
// crossbar, ADC and link stages) vs the analytic cost_model bound
// (tokens * tile read). The recurrence charges the SAME tile-read
// constant split into DAC/crossbar/ADC stages, so a single unpipelined
// tile degenerates to the analytic number exactly (printed, and asserted
// in test_cost_sim_consistency); multi-tile grids show the extra serial
// cost of shared ADC column groups and inter-tile partial-sum links the
// analytic model hides.
//
// Phase 2 (pipeline depth): the same serve workload at depth 1/2/4/8 —
// overlapping consecutive tokens' DAC/crossbar/ADC stages raises
// simulated throughput until the bottleneck stage saturates.
//
// Phase 3 (batching policy, criterion): fixed open-loop offered load in
// SIMULATED time, served under the default greedy batch-growth policy
// and under the latency-aware prefill-budget policy. Token outputs are
// bit-identical (batch-invariant streams); only latency moves. The
// acceptance criterion requires the latency-aware policy to cut mean
// simulated TTFT by >= 5% at the same offered load, with identical
// outputs — any miss exits nonzero.
//
//   ./ablation_timing [--smoke] [--requests=32] [--tokens=8]
//                     [--prefill-budget=16] [--load=1.5]
//                     [--out=results/ablation_timing.json]
//                     [--tile-read-ns=100] [--adc-fom-fj=30] ...
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cim/tile_config.hpp"
#include "cost/device_costs_cli.hpp"
#include "nn/transformer.hpp"
#include "serve/scheduler.hpp"
#include "timing/hw_model.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace nora;

namespace {

nn::TransformerConfig bench_arch() {
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

cim::TileConfig bench_tiles() {
  // Small tiles force multi-tile grids (qkv is 24x72 -> 2x6 tiles), so
  // shared-ADC serialization and inter-tile links actually bite.
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 16;
  cfg.tile_cols = 12;
  cfg.n_threads = 1;
  return cfg;
}

nn::TransformerLM make_model() {
  nn::TransformerLM model(bench_arch());
  std::uint64_t seed = 900;
  for (auto* lin : model.linear_layers()) {
    lin->to_analog(bench_tiles(), {}, seed++);
  }
  return model;
}

std::vector<std::vector<int>> make_prompts(int n) {
  std::vector<std::vector<int>> prompts;
  for (int i = 0; i < n; ++i) {
    const int len = 10 + (i % 3) * 3;  // 10 / 13 / 16 tokens
    std::vector<int> p;
    for (int t = 0; t < len; ++t) p.push_back((7 * i + 3 * t) % 30);
    prompts.push_back(std::move(p));
  }
  return prompts;
}

struct SimRun {
  serve::Metrics metrics;
  std::int64_t sim_ps = 0;
  std::vector<timing::LayerTiming> layers;
  std::vector<std::vector<int>> tokens;  // per request, submit order
  double mean_sim_ttft_us = 0.0;
};

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Open-loop serving with arrivals scheduled in SIMULATED time: request
/// i is submitted once the sim clock reaches arrival_ps[i]. The arrival
/// trace is identical across policies, so "offered load" means the same
/// thing for every contender (a drained scheduler fast-forwards to the
/// next arrival, as the wall-clock benches do with steps).
SimRun run_policy(nn::TransformerLM& model,
                  const std::vector<std::vector<int>>& prompts, int n_tokens,
                  const std::vector<std::int64_t>& arrival_ps,
                  const timing::TimingConfig& sim_cfg,
                  serve::BatchPolicy policy, std::int64_t prefill_budget) {
  serve::SchedulerConfig cfg;
  cfg.max_batch = 8;
  cfg.seed = 913;
  cfg.timing = sim_cfg;
  cfg.batch_policy = policy;
  cfg.prefill_tokens_per_step = prefill_budget;
  serve::Scheduler sched(model, cfg);
  std::vector<std::int64_t> arrivals = arrival_ps;
  arrivals.resize(prompts.size(), 0);  // missing entries arrive at sim t=0
  std::vector<std::int64_t> ids;
  std::size_t next = 0;
  bool busy = true;
  while (next < prompts.size() || busy) {
    while (next < prompts.size() && arrivals[next] <= sched.sim_now_ps()) {
      serve::RequestParams p;
      p.prompt = prompts[next];
      p.max_new_tokens = n_tokens;
      p.stream_seed = 1000 + next;  // policy-invariant outputs
      ids.push_back(sched.submit(std::move(p)));
      ++next;
    }
    busy = sched.step();
    if (!busy && next < prompts.size()) {
      arrivals[next] = sched.sim_now_ps();  // fast-forward to next arrival
      busy = true;
    }
  }
  SimRun r;
  r.metrics = sched.metrics();
  r.sim_ps = sched.sim_now_ps();
  r.layers = sched.timing_layers();
  for (const auto id : ids) r.tokens.push_back(sched.request(id).tokens);
  r.mean_sim_ttft_us = mean(r.metrics.sim_ttft_us);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.get_flag("smoke");
  const int n_requests =
      static_cast<int>(cli.get_int("requests", smoke ? 12 : 32));
  const int n_tokens = static_cast<int>(cli.get_int("tokens", 8));
  const std::int64_t prefill_budget = cli.get_int("prefill-budget", 16);
  const double load = cli.get_double("load", 1.5);
  const std::string out_path = cli.get("out", "results/ablation_timing.json");
  timing::TimingConfig sim_cfg;
  sim_cfg.enabled = true;
  sim_cfg.costs = cost::device_costs_from_cli(cli);
  cli.check_unknown();
  util::ThreadPool::global().resize(1);

  nn::TransformerLM model = make_model();
  const auto prompts = make_prompts(n_requests);
  std::printf("Timing co-simulation ablation — %d requests x %d tokens, "
              "tile read %.0f ns%s\n\n",
              n_requests, n_tokens, sim_cfg.costs.tile_read_latency_ns,
              smoke ? " (smoke)" : "");

  // --- phase 1: in-order recurrence vs analytic reconciliation -------
  const timing::HwModel hw(sim_cfg);
  {
    timing::TimingOp one;
    one.kind = timing::OpKind::kAnalogMvm;
    one.layer = "single-tile";
    one.rows = 16;
    one.k = 16;
    one.n = 12;
    one.row_blocks = 1;
    one.col_blocks = 1;
    const std::int64_t recurrence_ps = hw.analog_op_ps(one);
    const std::int64_t analytic_ps = one.rows * hw.tile_ps();
    std::printf("degenerate single unpipelined tile, %lld tokens: "
                "in-order recurrence %lld ps vs analytic %lld ps — %s\n\n",
                static_cast<long long>(one.rows),
                static_cast<long long>(recurrence_ps),
                static_cast<long long>(analytic_ps),
                recurrence_ps == analytic_ps ? "EXACT" : "MISMATCH");
    if (recurrence_ps != analytic_ps) return 1;
  }
  // Per-layer contrast on a real forward: one 16-token prefill.
  const std::vector<std::int64_t> immediate(1, 0);
  SimRun probe = run_policy(model, {prompts[2]}, n_tokens, immediate, sim_cfg,
                            serve::BatchPolicy::kGrowth, 0);
  util::Table ltable({"layer", "ops", "sim (us)", "analytic floor (us)",
                      "grid overhead"});
  for (const auto& lt : probe.layers) {
    // The analytic model charges one tile read per token per analog op;
    // the replay knows how many ops (and tokens each) hit the layer, so
    // approximate the floor from the layer's op count x mean tokens.
    // For this single-request probe every analog pass is the request's
    // current row count; the contrast column is qualitative.
    const double sim_us = static_cast<double>(lt.ps) * 1e-6;
    const double floor_us =
        static_cast<double>(
            lt.ops > 0
                ? (static_cast<std::int64_t>(prompts[2].size()) +
                   (lt.ops - 1)) *
                      hw.tile_ps()
                : 0) *
        1e-6;
    ltable.add_row({lt.layer, std::to_string(lt.ops),
                    util::Table::num(sim_us, 3),
                    util::Table::num(floor_us, 3),
                    util::Table::num(floor_us > 0.0 ? sim_us / floor_us : 0.0,
                                     2)});
  }
  std::printf("per-layer simulated time, one request (%d prompt + %d decode "
              "tokens; floor = analytic one-tile-read-per-token):\n",
              static_cast<int>(prompts[2].size()), n_tokens);
  ltable.print();

  // --- phase 2: pipeline-depth sweep ---------------------------------
  const std::vector<int> depths =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  util::Table dtable({"pipeline depth", "sim time (us)", "sim tok/s",
                      "sim TPOT p50 (us)", "events"});
  std::string depth_json;
  for (const int depth : depths) {
    timing::TimingConfig c = sim_cfg;
    c.pipeline_depth = depth;
    const SimRun r = run_policy(model, prompts, n_tokens, immediate, c,
                                serve::BatchPolicy::kGrowth, 0);
    dtable.add_row({std::to_string(depth),
                    util::Table::num(static_cast<double>(r.sim_ps) * 1e-6, 1),
                    util::Table::num(r.metrics.sim_tokens_per_s(), 0),
                    util::Table::num(r.metrics.sim_tpot_p50_us(), 2),
                    std::to_string(r.metrics.sim_events)});
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s{\"depth\":%d,\"sim_ps\":%lld,\"sim_tok_per_s\":%.6g}",
                  depth_json.empty() ? "" : ",", depth,
                  static_cast<long long>(r.sim_ps),
                  r.metrics.sim_tokens_per_s());
    depth_json += entry;
  }
  std::printf("\npipeline-depth sweep (saturated batch, all %d requests "
              "submitted at sim t=0):\n",
              n_requests);
  dtable.print();

  // --- phase 3: batching-policy sweep at fixed offered load ----------
  // Calibrate the arrival process off one solo request's service time,
  // then offer bursts of co-arriving requests at Poisson-spaced epochs
  // (`load` requests per solo-service interval on average). Bursts are
  // the regime where admission policy matters: greedy growth co-admits
  // the whole burst into one giant prefill step, so everyone's first
  // token waits for everyone's prompt; the latency-aware budget
  // staggers prefills instead. Both policies replay the IDENTICAL
  // arrival trace.
  const std::int64_t service_ps = probe.sim_ps;
  const int burst = 6;
  std::vector<std::int64_t> arrival_ps(static_cast<std::size_t>(n_requests));
  {
    util::Rng rng(4242);
    double t = 0.0;
    for (int i = 0; i < n_requests; ++i) {
      if (i % burst == 0 && i > 0) {
        t += -std::log(1.0 - rng.uniform()) * burst *
             static_cast<double>(service_ps) / load;
      }
      arrival_ps[static_cast<std::size_t>(i)] =
          static_cast<std::int64_t>(t);
    }
  }
  const SimRun growth =
      run_policy(model, prompts, n_tokens, arrival_ps, sim_cfg,
                 serve::BatchPolicy::kGrowth, 0);
  const SimRun latency =
      run_policy(model, prompts, n_tokens, arrival_ps, sim_cfg,
                 serve::BatchPolicy::kLatencyAware, prefill_budget);
  util::Table ptable({"policy", "mean sim TTFT (us)", "sim TTFT p50 (us)",
                      "sim TTFT p95 (us)", "sim TPOT p50 (us)",
                      "sim goodput (tok/s)", "sim time (us)"});
  auto add_policy = [&ptable](const char* label, const SimRun& r) {
    ptable.add_row({label, util::Table::num(r.mean_sim_ttft_us, 1),
                    util::Table::num(r.metrics.sim_ttft_p50_us(), 1),
                    util::Table::num(r.metrics.sim_ttft_p95_us(), 1),
                    util::Table::num(r.metrics.sim_tpot_p50_us(), 2),
                    util::Table::num(r.metrics.sim_goodput_tokens_per_s(), 0),
                    util::Table::num(static_cast<double>(r.sim_ps) * 1e-6,
                                     1)});
  };
  add_policy("batch-growth (default)", growth);
  add_policy("latency-aware", latency);
  std::printf("\nbatching-policy sweep at offered load %.2fx (Poisson "
              "bursts of %d in sim time, prefill budget %lld tokens):\n",
              load, burst, static_cast<long long>(prefill_budget));
  ptable.print();

  const bool same_tokens = growth.tokens == latency.tokens;
  const double improvement =
      growth.mean_sim_ttft_us > 0.0
          ? 1.0 - latency.mean_sim_ttft_us / growth.mean_sim_ttft_us
          : 0.0;
  std::printf("\noutputs bit-identical across policies: %s\n",
              same_tokens ? "PASS" : "FAIL");
  std::printf("mean sim TTFT: growth %.1f us -> latency-aware %.1f us "
              "(%.1f%% better)\n",
              growth.mean_sim_ttft_us, latency.mean_sim_ttft_us,
              improvement * 100.0);

  if (!out_path.empty()) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"requests\":%d,\"tokens\":%d,\"load\":%.3g,"
                  "\"depths\":[%s],\"growth_mean_sim_ttft_us\":%.6g,"
                  "\"latency_mean_sim_ttft_us\":%.6g,"
                  "\"ttft_improvement\":%.6g,\"same_tokens\":%s}",
                  n_requests, n_tokens, load, depth_json.c_str(),
                  growth.mean_sim_ttft_us, latency.mean_sim_ttft_us,
                  improvement, same_tokens ? "true" : "false");
    if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", buf);
      std::fclose(f);
      std::printf("wrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "WARNING: cannot write %s\n", out_path.c_str());
    }
  }

  // --- acceptance ----------------------------------------------------
  bool ok = same_tokens;
  if (!same_tokens) {
    std::printf("FAIL: batching policy changed request outputs — admission "
                "must only move latency, never tokens.\n");
  }
  const bool faster = improvement >= 0.05;
  std::printf("latency-aware criterion (>= 5%% mean sim-TTFT cut at fixed "
              "offered load): %s\n",
              faster ? "PASS" : "FAIL");
  ok = ok && faster;
  return ok ? 0 : 1;
}
