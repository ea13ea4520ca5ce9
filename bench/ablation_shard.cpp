// Multi-chip sharding ablation: tensor/pipeline parallelism over the
// simulated chip fabric, swept at 1/2/4/8 chips on the zoo model.
//
// Phase 1 (chip invariance, criterion): the same serving workload runs
// under tensor-parallel plans of every chip count; tokens AND logits
// must be bit-identical. Sharded execution repartitions the identical
// (token, row-block, tile) work items and reduces them in a canonical
// order, so chip count — like host thread count — must never change a
// single bit.
//
// Phase 2 (throughput scaling, criterion): a saturated decode batch is
// served with the pipelined multi-chip replay under the cost-model
// placement for each chip budget. Simulated time must scale: >= 1.6x at
// 2 chips and >= 2.5x at 4 chips over the 1-chip plan.
//
// Phase 3 (placement quality, criterion): the cost-model-driven plan
// (exhaustive stage partition x tensor-parallel widths, scored on the
// SAME pipelined replay the scheduler uses) must beat naive round-robin
// block placement on mean simulated TTFT at the full chip budget.
//
//   ./ablation_shard [--smoke] [--batch=16] [--tokens=8]
//                    [--out=results/ablation_shard.json]
//                    [--chip-link-ns=20] [--chip-link-bytes-per-ns=32] ...
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cim/tile_config.hpp"
#include "core/nora.hpp"
#include "cost/device_costs_cli.hpp"
#include "eval/evaluator.hpp"
#include "model/zoo.hpp"
#include "nn/transformer.hpp"
#include "serve/scheduler.hpp"
#include "shard/apply.hpp"
#include "shard/chip_set.hpp"
#include "shard/plan.hpp"
#include "timing/hw_model.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace nora;

namespace {

/// 4x16 tiles on the zoo model's d_model=64 layers: qkv spans a 16x12
/// grid, down-proj 64x4 — multi-tile grids on BOTH axes, so both shard
/// axes have real extents, and the deep row-block stacks keep the
/// ADC-serialized (row-split-scalable) share of each op's latency well
/// above the fixed DAC/link/attention overheads. Noise + ABFT stay on:
/// the invariance claim is about the noisy operating point, not an
/// ideal array. Every analog layer runs on the global pool at n_threads;
/// thread invariance keeps every printed number identical at any width.
cim::TileConfig bench_tiles() {
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 4;
  cfg.tile_cols = 16;
  cfg.in_noise = 0.02f;
  cfg.abft_checksum = true;
  cfg.n_threads = 4;
  return cfg;
}

std::vector<std::vector<int>> make_prompts(int n, int vocab) {
  std::vector<std::vector<int>> prompts;
  for (int i = 0; i < n; ++i) {
    const int len = 8 + (i % 3) * 3;  // 8 / 11 / 14 tokens
    std::vector<int> p;
    for (int t = 0; t < len; ++t) p.push_back((7 * i + 3 * t) % vocab);
    prompts.push_back(std::move(p));
  }
  return prompts;
}

struct SimRun {
  std::int64_t sim_ps = 0;
  double mean_sim_ttft_us = 0.0;
  std::int64_t link_transfers = 0;
  std::vector<std::vector<int>> tokens;
  std::vector<std::vector<std::vector<float>>> logits;  // per req, per tok
};

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Serve `prompts` (all submitted up front — a saturated batch) under
/// whatever shard plan is currently applied to the model, with the
/// multi-chip pipelined replay driving the simulated clock.
SimRun run_serve(nn::TransformerLM& model,
                 const std::vector<std::vector<int>>& prompts, int n_tokens,
                 const timing::TimingConfig& sim_cfg, bool record_logits) {
  serve::SchedulerConfig cfg;
  cfg.max_batch = static_cast<int>(prompts.size());
  cfg.seed = 913;
  cfg.timing = sim_cfg;
  cfg.shard_replay = true;
  cfg.record_logits = record_logits;
  serve::Scheduler sched(model, cfg);
  std::vector<std::int64_t> ids;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    serve::RequestParams p;
    p.prompt = prompts[i];
    p.max_new_tokens = n_tokens;
    p.stream_seed = 1000 + i;  // keyed streams: plan-invariant outputs
    ids.push_back(sched.submit(std::move(p)));
  }
  sched.run_until_idle();
  SimRun r;
  const serve::Metrics m = sched.metrics();
  r.sim_ps = m.sim_time_ps;
  r.mean_sim_ttft_us = mean(m.sim_ttft_us);
  r.link_transfers = m.sim_link_transfers;
  for (const auto id : ids) {
    const serve::RequestRecord rec = sched.request(id);
    r.tokens.push_back(rec.tokens);
    if (record_logits) r.logits.push_back(rec.logits);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.get_flag("smoke");
  const int batch = static_cast<int>(cli.get_int("batch", 24));
  const int n_tokens = static_cast<int>(cli.get_int("tokens", smoke ? 4 : 8));
  const std::string out_path = cli.get("out", "results/ablation_shard.json");
  timing::TimingConfig sim_cfg;
  sim_cfg.enabled = true;
  sim_cfg.pipeline_depth = 4;
  sim_cfg.costs = cost::device_costs_from_cli(cli);
  cli.check_unknown();
  util::ThreadPool::global().resize(1);

  // Zoo model, analog-deployed with multi-tile grids.
  const model::ModelSpec spec = model::spec_by_name("opt-1.3b-sim");
  auto model = model::get_or_train(spec, /*verbose=*/false);
  const eval::SynthLambada task{spec.task};
  core::DeployOptions opts;
  opts.tile = bench_tiles();
  opts.seed = 4040;
  core::deploy_analog(*model, task, opts);
  const int n_blocks = static_cast<int>(model->blocks().size());
  std::printf("Multi-chip sharding ablation — %s (%d blocks), batch %d x %d "
              "tokens, link %.0f ns + %.0f B/ns%s\n\n",
              spec.name.c_str(), n_blocks, batch, n_tokens,
              sim_cfg.costs.chip_link_latency_ns,
              sim_cfg.costs.chip_link_bytes_per_ns, smoke ? " (smoke)" : "");

  const std::vector<int> chip_counts{1, 2, 4, 8};
  const auto prompts = make_prompts(batch, static_cast<int>(
                                               spec.arch.vocab_size));
  const timing::HwModel hw(sim_cfg);
  // One chip set sized for the largest sweep point; smaller plans place
  // their layers on a prefix of its chips.
  shard::ChipSet chips(chip_counts.back(), 1);

  // --- phase 1: chip invariance (bit-identical outputs) --------------
  // Tensor-parallel plans sweep the chip count over the SAME workload;
  // a small request set with logits recording keeps the comparison
  // payload meaningful but cheap.
  const auto inv_prompts = make_prompts(4, static_cast<int>(
                                               spec.arch.vocab_size));
  bool bits_ok = true;
  SimRun inv_ref;
  for (const int n_chips : chip_counts) {
    shard::apply_plan(*model, chips,
                      shard::plan_tensor_parallel(n_blocks, n_chips));
    const SimRun r = run_serve(*model, inv_prompts, n_tokens, sim_cfg,
                               /*record_logits=*/true);
    if (n_chips == 1) {
      inv_ref = r;
    } else {
      const bool same = r.tokens == inv_ref.tokens &&
                        r.logits == inv_ref.logits;
      bits_ok = bits_ok && same;
      std::printf("chip invariance at %d chips: tokens %s, logits %s\n",
                  n_chips, r.tokens == inv_ref.tokens ? "identical" : "DIFFER",
                  r.logits == inv_ref.logits ? "bit-identical" : "DIFFER");
    }
  }
  std::printf("\n");

  // --- phase 2: simulated-throughput scaling -------------------------
  struct ChipResult {
    int chips = 0;
    std::string plan;
    std::int64_t sim_ps = 0;
    double speedup = 1.0;
    double ttft_us = 0.0;
    std::int64_t link_transfers = 0;
  };
  std::vector<ChipResult> results;
  std::int64_t base_ps = 0;
  for (const int n_chips : chip_counts) {
    const shard::PipelinePlan plan = shard::plan_cost_model(
        *model, hw, n_chips, /*microbatches=*/batch);
    shard::apply_plan(*model, chips, plan);
    const SimRun r = run_serve(*model, prompts, n_tokens, sim_cfg,
                               /*record_logits=*/false);
    if (n_chips == 1) base_ps = r.sim_ps;
    ChipResult cr;
    cr.chips = n_chips;
    cr.plan = plan.to_string();
    cr.sim_ps = r.sim_ps;
    cr.speedup = r.sim_ps > 0
                     ? static_cast<double>(base_ps) /
                           static_cast<double>(r.sim_ps)
                     : 0.0;
    cr.ttft_us = r.mean_sim_ttft_us;
    cr.link_transfers = r.link_transfers;
    results.push_back(std::move(cr));
  }
  util::Table ttable({"chips", "placement", "sim time (us)", "speedup",
                      "mean sim TTFT (us)", "link transfers"});
  for (const auto& cr : results) {
    ttable.add_row({std::to_string(cr.chips), cr.plan,
                    util::Table::num(static_cast<double>(cr.sim_ps) * 1e-6, 1),
                    util::Table::num(cr.speedup, 2),
                    util::Table::num(cr.ttft_us, 1),
                    std::to_string(cr.link_transfers)});
  }
  std::printf("cost-model placement per chip budget (saturated batch of %d, "
              "pipelined multi-chip replay):\n",
              batch);
  ttable.print();

  // --- phase 3: placement quality vs round-robin ---------------------
  const int full = chip_counts.back() / 2;  // 4 chips: both plans fit
  const shard::PipelinePlan dp_plan =
      shard::plan_cost_model(*model, hw, full, batch);
  const shard::PipelinePlan rr_plan = shard::plan_round_robin(n_blocks, full);
  shard::apply_plan(*model, chips, dp_plan);
  const SimRun dp = run_serve(*model, prompts, n_tokens, sim_cfg, false);
  shard::apply_plan(*model, chips, rr_plan);
  const SimRun rr = run_serve(*model, prompts, n_tokens, sim_cfg, false);
  shard::clear_plan(*model);
  std::printf("\nplacement quality at %d chips (mean sim TTFT):\n", full);
  std::printf("  cost-model %-32s %10.1f us\n", dp_plan.to_string().c_str(),
              dp.mean_sim_ttft_us);
  std::printf("  round-robin %-31s %10.1f us\n", rr_plan.to_string().c_str(),
              rr.mean_sim_ttft_us);

  // --- acceptance ----------------------------------------------------
  double speed2 = 0.0, speed4 = 0.0;
  for (const auto& cr : results) {
    if (cr.chips == 2) speed2 = cr.speedup;
    if (cr.chips == 4) speed4 = cr.speedup;
  }
  const bool scale2 = speed2 >= 1.6;
  const bool scale4 = speed4 >= 2.5;
  const bool placement = dp.mean_sim_ttft_us < rr.mean_sim_ttft_us;
  std::printf("\nchip-invariance criterion (bit-identical tokens+logits at "
              "1/2/4/8 chips): %s\n",
              bits_ok ? "PASS" : "FAIL");
  std::printf("throughput criterion (>= 1.6x at 2 chips): %.2fx — %s\n",
              speed2, scale2 ? "PASS" : "FAIL");
  std::printf("throughput criterion (>= 2.5x at 4 chips): %.2fx — %s\n",
              speed4, scale4 ? "PASS" : "FAIL");
  std::printf("placement criterion (cost model beats round-robin on sim "
              "TTFT): %s\n",
              placement ? "PASS" : "FAIL");

  if (!out_path.empty()) {
    std::string rows;
    for (const auto& cr : results) {
      char entry[256];
      std::snprintf(entry, sizeof(entry),
                    "%s{\"chips\":%d,\"plan\":\"%s\",\"sim_ps\":%lld,"
                    "\"speedup\":%.6g,\"mean_sim_ttft_us\":%.6g}",
                    rows.empty() ? "" : ",", cr.chips, cr.plan.c_str(),
                    static_cast<long long>(cr.sim_ps), cr.speedup,
                    cr.ttft_us);
      rows += entry;
    }
    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "{\"model\":\"%s\",\"batch\":%d,\"tokens\":%d,"
                  "\"chips\":[%s],\"bits_identical\":%s,"
                  "\"dp_mean_sim_ttft_us\":%.6g,"
                  "\"rr_mean_sim_ttft_us\":%.6g}",
                  spec.name.c_str(), batch, n_tokens, rows.c_str(),
                  bits_ok ? "true" : "false", dp.mean_sim_ttft_us,
                  rr.mean_sim_ttft_us);
    if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", buf);
      std::fclose(f);
      std::printf("wrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "WARNING: cannot write %s\n", out_path.c_str());
    }
  }

  const bool ok = bits_ok && scale2 && scale4 && placement;
  return ok ? 0 : 1;
}
