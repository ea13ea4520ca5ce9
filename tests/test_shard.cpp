// Multi-chip sharding: the chip-invariance property (outputs bit-identical
// for ANY chip count and ANY TileConfig::n_threads — the multi-chip
// extension of thread invariance), plan mechanics, placement search
// quality, tensor-parallel timing, pipelined replay, and the sharded
// golden-stream regression.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "cim/analog_matmul.hpp"
#include "nn/transformer.hpp"
#include "runtime/integrity_monitor.hpp"
#include "serve/auditor.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "shard/apply.hpp"
#include "shard/chip_set.hpp"
#include "shard/plan.hpp"
#include "timing/hw_model.hpp"
#include "timing/trace.hpp"
#include "util/thread_pool.hpp"

namespace nora {
namespace {

Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed,
                     float std_dev = 0.5f) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.fill_gaussian(rng, std_dev);
  return m;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.size())) == 0;
}

/// Everything-on operating point (mirrors test_thread_invariance): every
/// noise source, bound management, faults + spares + retries, ABFT —
/// small tiles so a 70x50 matrix spans a 3x3 grid.
cim::TileConfig everything_on() {
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 32;
  cfg.tile_cols = 24;
  cfg.in_noise = 0.02f;
  cfg.sshape_k = 0.2f;
  cfg.bound_management = true;
  cfg.adc_bound = 4.0f;
  cfg.faults.stuck_zero_rate = 0.01f;
  cfg.faults.stuck_gmax_rate = 0.002f;
  cfg.spare_cols = 2;
  cfg.max_program_retries = 2;
  cfg.abft_checksum = true;
  return cfg;
}

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

/// Analog-deploy a tiny model with all noise sources live, 16x12 tiles
/// (multi-tile grids on every linear).
nn::TransformerLM make_analog_model(int n_threads = 1) {
  cim::TileConfig tile = everything_on();
  tile.tile_rows = 16;
  tile.tile_cols = 12;
  tile.n_threads = n_threads;
  nn::TransformerLM model(tiny_arch());
  std::uint64_t seed = 900;
  for (auto* lin : model.linear_layers()) {
    lin->to_analog(tile, {}, seed++);
  }
  return model;
}

// --- ChipSet ---------------------------------------------------------

TEST(ChipSet, ConstructionAndPoolRanges) {
  EXPECT_THROW(shard::ChipSet(0), std::invalid_argument);
  EXPECT_THROW(shard::ChipSet(-2), std::invalid_argument);
  shard::ChipSet chips(4, /*threads_per_chip=*/2);
  EXPECT_EQ(chips.n_chips(), 4);
  // Nonsense per-chip widths are accepted (a chip spawns no threads).
  EXPECT_EQ(shard::ChipSet(2, /*threads_per_chip=*/0).n_chips(), 2);
}

// --- plans -----------------------------------------------------------

TEST(PipelinePlan, BaselineShapesAndValidation) {
  const shard::PipelinePlan rr = shard::plan_round_robin(5, 3);
  ASSERT_EQ(rr.stages.size(), 5u);
  for (int b = 0; b < 5; ++b) {
    EXPECT_EQ(rr.stages[static_cast<std::size_t>(b)].chip0, b % 3);
    EXPECT_EQ(rr.stages[static_cast<std::size_t>(b)].tp_chips, 1);
    EXPECT_EQ(rr.stage_of_block(b), b);
  }
  rr.validate(5);
  EXPECT_THROW(rr.validate(6), std::invalid_argument);  // uncovered block

  const shard::PipelinePlan tp = shard::plan_tensor_parallel(4, 2);
  ASSERT_EQ(tp.stages.size(), 1u);
  EXPECT_EQ(tp.stages[0].n_blocks, 4);
  EXPECT_EQ(tp.stages[0].tp_chips, 2);
  tp.validate(4);
  EXPECT_EQ(&tp.last_stage(), &tp.stages[0]);

  shard::PipelinePlan bad = tp;
  bad.stages[0].chip0 = 1;  // chips [1,3) exceed the 2-chip budget
  EXPECT_THROW(bad.validate(4), std::invalid_argument);
  shard::PipelinePlan gap;
  gap.n_chips = 2;
  gap.stages = {{0, 1, 0, 1}, {2, 1, 1, 1}};  // block 1 uncovered
  EXPECT_THROW(gap.validate(3), std::invalid_argument);
  EXPECT_THROW(gap.stage_of_block(1), std::invalid_argument);
}

// --- chip invariance: sharded AnalogMatmul ---------------------------

TEST(ChipInvariance, MatmulBitIdenticalAcrossChipAndThreadCounts) {
  const Matrix w = random_matrix(70, 50, 909);
  const Matrix x = random_matrix(6, 70, 808, 1.0f);
  util::ThreadPool::global().resize(1);

  // Reference: sharded path on ONE chip, sequential. (The sharded
  // path's canonical tree reduce and per-tile bound management differ
  // deterministically from the legacy fold; invariance is sharded vs
  // sharded, which is exactly what multi-chip deployments compare.)
  auto run = [&](cim::ShardAxis axis, int n_chips, int n_threads,
                 cim::ArrayStats* stats_out) {
    cim::TileConfig cfg = everything_on();
    cfg.n_threads = n_threads;
    cim::AnalogMatmul unit(w, {}, cfg, 777);
    unit.set_shard_plan({axis, n_chips});
    Matrix y1 = unit.forward(x, cim::stream_keys(0, x.rows()));
    Matrix y2 = unit.forward(x, cim::stream_keys(1, x.rows()));
    if (stats_out != nullptr) *stats_out = unit.stats();
    // Concatenate both streams for a single comparison payload.
    Matrix both(y1.rows() * 2, y1.cols());
    std::memcpy(both.data(), y1.data(),
                sizeof(float) * static_cast<std::size_t>(y1.size()));
    std::memcpy(both.data() + y1.size(), y2.data(),
                sizeof(float) * static_cast<std::size_t>(y2.size()));
    return both;
  };

  for (const cim::ShardAxis axis :
       {cim::ShardAxis::kRowBlocks, cim::ShardAxis::kColBlocks}) {
    cim::ArrayStats ref_stats;
    const Matrix ref = run(axis, 1, 1, &ref_stats);
    for (const int n_chips : {2, 4}) {
      for (const int threads : {1, 4}) {
        cim::ArrayStats stats;
        const Matrix got = run(axis, n_chips, threads, &stats);
        EXPECT_TRUE(bitwise_equal(got, ref))
            << "axis=" << static_cast<int>(axis) << " chips=" << n_chips
            << " n_threads=" << threads;
        // Statistics fold in canonical order: equally chip-invariant.
        EXPECT_EQ(stats.dac_samples, ref_stats.dac_samples);
        EXPECT_EQ(stats.dac_clipped, ref_stats.dac_clipped);
        EXPECT_EQ(stats.bm_retries, ref_stats.bm_retries);
        EXPECT_EQ(stats.alpha_sum, ref_stats.alpha_sum);
      }
    }
    // The two axes partition the same item set: identical bits too.
  }
  const Matrix row_ref = run(cim::ShardAxis::kRowBlocks, 1, 1, nullptr);
  const Matrix col_ref = run(cim::ShardAxis::kColBlocks, 4, 2, nullptr);
  EXPECT_TRUE(bitwise_equal(row_ref, col_ref));
  util::ThreadPool::global().resize(1);
}

TEST(ChipInvariance, SplitAxisNarrowerThanChipCountStaysBitIdentical) {
  // The shapes where chips outnumber the split axis (an out-proj with 2
  // row blocks, an lm_head with 2 column blocks): 4 chips at 4 threads
  // must reproduce the sequential 1-chip bits and statistics.
  struct Case {
    cim::ShardAxis axis;
    std::int64_t k, n;  // 32x24 tiles, 22 logical columns each
  };
  for (const Case& c : {Case{cim::ShardAxis::kRowBlocks, 60, 20},
                        Case{cim::ShardAxis::kColBlocks, 30, 40}}) {
    // Non-negative weights and inputs add coherently, driving the ADC
    // into saturation so bound management actually retries.
    Matrix w = random_matrix(c.k, c.n, 616);
    Matrix x = random_matrix(12, c.k, 515, 1.0f);
    for (Matrix* m : {&w, &x}) {
      for (std::int64_t i = 0; i < m->size(); ++i) {
        m->data()[i] = std::fabs(m->data()[i]);
      }
    }
    auto run = [&](int n_chips, int n_threads, cim::ArrayStats& stats) {
      cim::TileConfig cfg = everything_on();
      cfg.n_threads = n_threads;
      cim::AnalogMatmul unit(w, {}, cfg, 4242);
      unit.set_shard_plan({c.axis, n_chips});
      const Matrix y = unit.forward(x, cim::stream_keys(0, x.rows()));
      stats = unit.stats();
      EXPECT_EQ(c.axis == cim::ShardAxis::kRowBlocks ? unit.row_blocks()
                                                     : unit.col_blocks(),
                2);
      return y;
    };
    util::ThreadPool::global().resize(1);
    cim::ArrayStats ref_stats, stats;
    const Matrix ref = run(1, 1, ref_stats);
    const Matrix got = run(4, 4, stats);
    const std::string where =
        "axis=" + std::to_string(static_cast<int>(c.axis));
    EXPECT_TRUE(bitwise_equal(got, ref)) << where;
    EXPECT_GT(ref_stats.bm_retries, 0) << where;  // bound management fired
    EXPECT_EQ(stats.dac_samples, ref_stats.dac_samples) << where;
    EXPECT_EQ(stats.dac_clipped, ref_stats.dac_clipped) << where;
    EXPECT_EQ(stats.bm_retries, ref_stats.bm_retries) << where;
    EXPECT_EQ(stats.alpha_count, ref_stats.alpha_count) << where;
    EXPECT_EQ(stats.alpha_sum, ref_stats.alpha_sum) << where;
  }
  util::ThreadPool::global().resize(1);
}

TEST(ChipInvariance, DeployedModelLogitsBitIdenticalAcrossChips) {
  const std::vector<int> tokens{3, 1, 4, 1, 5, 9, 2, 6};
  auto run = [&](int n_chips, int n_threads) {
    util::ThreadPool::global().resize(1);
    nn::TransformerLM model = make_analog_model(n_threads);
    shard::ChipSet chips(n_chips);
    const shard::PipelinePlan plan = shard::plan_tensor_parallel(
        static_cast<int>(model.blocks().size()), n_chips);
    shard::apply_plan(model, chips, plan);
    return model.infer(tokens);
  };
  const Matrix ref = run(1, 1);
  for (const int n_chips : {2, 4}) {
    for (const int threads : {1, 4}) {
      EXPECT_TRUE(bitwise_equal(run(n_chips, threads), ref))
          << "chips=" << n_chips << " n_threads=" << threads;
    }
  }
  util::ThreadPool::global().resize(1);
}

TEST(ChipInvariance, PipelinePlacementDoesNotChangeBits) {
  // Pipeline placement moves blocks between chips (and changes the
  // timing stamps) but must never change the computation.
  const std::vector<int> tokens{3, 1, 4, 1, 5, 9, 2, 6};
  auto run = [&](const shard::PipelinePlan& plan, int n_chips) {
    util::ThreadPool::global().resize(1);
    nn::TransformerLM model = make_analog_model();
    shard::ChipSet chips(n_chips, 2);
    shard::apply_plan(model, chips, plan);
    return model.infer(tokens);
  };
  const Matrix ref = run(shard::plan_tensor_parallel(2, 1), 1);
  EXPECT_TRUE(bitwise_equal(run(shard::plan_round_robin(2, 2), 2), ref));
  shard::PipelinePlan hybrid;
  hybrid.n_chips = 4;
  hybrid.stages = {{0, 1, 0, 2}, {1, 1, 2, 2}};  // 2 stages x TP2
  EXPECT_TRUE(bitwise_equal(run(hybrid, 4), ref));
  util::ThreadPool::global().resize(1);
}

TEST(ChipInvariance, ClearPlanRestoresLegacyPath) {
  const Matrix w = random_matrix(70, 50, 909);
  const Matrix x = random_matrix(4, 70, 808, 1.0f);
  util::ThreadPool::global().resize(1);
  cim::AnalogMatmul legacy(w, {}, everything_on(), 777);
  const auto keys = cim::stream_keys(0, x.rows());
  const Matrix ref = legacy.forward(x, keys);
  cim::AnalogMatmul unit(w, {}, everything_on(), 777);
  unit.set_shard_plan({cim::ShardAxis::kRowBlocks, 2});
  EXPECT_TRUE(unit.sharded());
  unit.clear_shard_plan();
  EXPECT_FALSE(unit.sharded());
  // After clearing, stream 0 replays the exact legacy bits.
  EXPECT_TRUE(bitwise_equal(unit.forward(x, keys), ref));
}

// --- sharded golden-stream regression --------------------------------

// Pinned values of the sharded execution path (canonical tree reduce +
// per-tile bound management), captured at 2 chips / kRowBlocks. The
// chip-invariance tests guarantee the same bits at ANY chip count; this
// golden pins the absolute values so a change to the work-item
// derivation or the reduction bracketing fails loudly.
struct Golden {
  int t, j;
  float v;
};
constexpr Golden kShardGolden[] = {
    {0, 3, -0.0379376411f}, {0, 25, -2.34188604f}, {0, 49, 4.39771414f},
    {4, 3, -4.99205256f},   {4, 25, -8.36700153f}, {4, 49, 2.59049129f},
};

TEST(ShardGolden, ShardedForwardMatchesPinnedValues) {
  util::ThreadPool::global().resize(1);
  const Matrix w = random_matrix(70, 50, 101);
  const Matrix x = random_matrix(5, 70, 202, 1.0f);
  cim::AnalogMatmul unit(w, {}, everything_on(), 31337);
  unit.set_shard_plan({cim::ShardAxis::kRowBlocks, 2});
  const Matrix y = unit.forward(x, cim::stream_keys(0, x.rows()));
  for (const auto& g : kShardGolden) {
    EXPECT_EQ(y.at(g.t, g.j), g.v) << "t=" << g.t << " j=" << g.j;
  }
  // Converter traffic is part of the contract (same DAC/ADC totals as
  // the legacy path: sharding never changes WHAT runs, only where).
  EXPECT_EQ(unit.stats().dac_samples, 350);
  EXPECT_EQ(unit.adc_reads(), 750);
  EXPECT_EQ(unit.abft_stats().checks, 45);
}

// --- plan traces and the placement search ----------------------------

timing::TimingConfig timing_cfg() {
  timing::TimingConfig cfg;
  cfg.enabled = true;
  cfg.pipeline_depth = 4;
  return cfg;
}

TEST(PlanTrace, StampsMatchThePlan) {
  nn::TransformerLM model = make_analog_model();
  shard::PipelinePlan plan;
  plan.n_chips = 4;
  plan.stages = {{0, 1, 0, 2}, {1, 1, 2, 2}};
  const timing::Trace trace =
      shard::plan_trace(model, plan, /*rows=*/8, /*ctx_hint=*/16);
  // Per block: qkv, scores, out, up, down (no gate in this MLP) + head.
  ASSERT_EQ(trace.ops.size(), 2u * 5u + 1u);
  for (const auto& op : trace.ops) {
    EXPECT_EQ(op.rows, 8);
    const bool block0 = op.layer.find("blk0") != std::string::npos;
    EXPECT_EQ(op.chip, block0 ? 0 : 2) << op.layer;  // lm_head: last stage
    if (op.kind == timing::OpKind::kAnalogMvm) {
      EXPECT_EQ(op.tp_chips, 2) << op.layer;
      EXPECT_NE(op.tp_axis, timing::ShardAxis::kNone) << op.layer;
    }
  }
  // qkv/up/head split columns; out/down split rows.
  for (const auto& op : trace.ops) {
    if (op.kind != timing::OpKind::kAnalogMvm) continue;
    const bool row_split = op.layer.find("out") != std::string::npos ||
                           op.layer.find("down") != std::string::npos;
    EXPECT_EQ(op.tp_axis, row_split ? timing::ShardAxis::kRowBlocks
                                    : timing::ShardAxis::kColBlocks)
        << op.layer;
  }
}

TEST(PlacementSearch, CostModelPlanBeatsRoundRobin) {
  nn::TransformerLM model = make_analog_model();
  const timing::HwModel hw(timing_cfg());
  for (const int n_chips : {2, 4}) {
    const shard::PipelinePlan best =
        shard::plan_cost_model(model, hw, n_chips, /*microbatches=*/8);
    best.validate(static_cast<int>(model.blocks().size()));
    const shard::PipelinePlan naive =
        shard::plan_round_robin(static_cast<int>(model.blocks().size()),
                                n_chips);
    const auto score = [&](const shard::PipelinePlan& p) {
      return hw.replay_pipelined(shard::plan_trace(model, p, 8, 32)).total_ps;
    };
    EXPECT_LE(score(best), score(naive)) << n_chips << " chips";
    // And the search must actually use the budget: the best plan beats
    // the single-chip plan on simulated time.
    const shard::PipelinePlan solo = shard::plan_tensor_parallel(
        static_cast<int>(model.blocks().size()), 1);
    EXPECT_LT(score(best), score(solo)) << n_chips << " chips";
  }
}

TEST(PlacementSearch, DeterministicAcrossCalls) {
  nn::TransformerLM model = make_analog_model();
  const timing::HwModel hw(timing_cfg());
  const shard::PipelinePlan a = shard::plan_cost_model(model, hw, 4);
  const shard::PipelinePlan b = shard::plan_cost_model(model, hw, 4);
  EXPECT_EQ(a.to_string(), b.to_string());
}

// --- tensor-parallel timing ------------------------------------------

TEST(TpTiming, RowSplitCutsLatencyAndChargesTheLink) {
  const timing::HwModel hw(timing_cfg());
  timing::TimingOp op;
  op.kind = timing::OpKind::kAnalogMvm;
  op.rows = 4;
  op.k = 256;
  op.n = 64;
  op.row_blocks = 8;
  op.col_blocks = 2;
  op.macs = op.rows * op.k * op.n;
  const std::int64_t solo = hw.analog_op_ps(op);
  timing::TimingOp tp = op;
  tp.tp_chips = 4;
  tp.tp_axis = timing::ShardAxis::kRowBlocks;
  const std::int64_t split = hw.analog_op_ps(tp);
  EXPECT_LT(split, solo);  // 8 row blocks -> 2 per chip dominates the link
  // The link is charged: an absurdly slow link makes the split slower
  // than running solo.
  timing::TimingConfig slow = timing_cfg();
  slow.costs.chip_link_latency_ns = 1e6;
  const timing::HwModel hw_slow(slow);
  EXPECT_GT(hw_slow.analog_op_ps(tp), hw_slow.analog_op_ps(op));
  // Width clamps to the axis extent: splitting 8 row blocks 16 ways
  // equals splitting them 8 ways.
  timing::TimingOp wide = tp;
  wide.tp_chips = 16;
  timing::TimingOp exact = tp;
  exact.tp_chips = 8;
  EXPECT_EQ(hw.analog_op_ps(wide), hw.analog_op_ps(exact));
}

TEST(TpTiming, ColSplitGathersOnce) {
  const timing::HwModel hw(timing_cfg());
  timing::TimingOp op;
  op.kind = timing::OpKind::kAnalogMvm;
  op.rows = 2;
  op.k = 64;
  op.n = 256;
  op.row_blocks = 2;
  op.col_blocks = 8;
  op.macs = op.rows * op.k * op.n;
  timing::TimingOp tp = op;
  tp.tp_chips = 2;
  tp.tp_axis = timing::ShardAxis::kColBlocks;
  // A column split never beats the solo op on latency (the shared-ADC
  // serialization is over ROW blocks), but it must stay close: one
  // gather round, not a log2 all-reduce.
  const std::int64_t solo = hw.analog_op_ps(op);
  const std::int64_t split = hw.analog_op_ps(tp);
  EXPECT_GT(split, 0);
  EXPECT_LT(split, solo + solo / 2);
}

// --- pipelined replay ------------------------------------------------

timing::Trace two_chip_trace(std::int64_t rows) {
  timing::Trace trace;
  for (int i = 0; i < 2; ++i) {
    timing::TimingOp op;
    op.kind = timing::OpKind::kDigitalGemm;
    op.layer = i == 0 ? "stage0" : "stage1";
    op.rows = rows;
    op.k = 64;
    op.n = 64;
    op.macs = rows * 64 * 64;
    op.chip = i;
    trace.ops.push_back(op);
  }
  return trace;
}

TEST(ReplayPipelined, SingleChipDegeneratesToMicrobatchedChain) {
  const timing::HwModel hw(timing_cfg());
  timing::Trace trace = two_chip_trace(8);
  for (auto& op : trace.ops) op.chip = 0;
  const timing::StepTiming st = hw.replay_pipelined(trace);
  EXPECT_EQ(st.link_ps, 0);
  EXPECT_EQ(st.link_transfers, 0);
  // M = 8 microbatches through a serial 2-op chain: fill (1 chain) plus
  // 7 more intervals of the single busy chip == 8 x chain.
  timing::TimingOp mb = trace.ops[0];
  mb.rows = 1;
  mb.macs = trace.ops[0].macs / 8;
  const std::int64_t chain = 2 * hw.op_ps(mb);
  EXPECT_EQ(st.total_ps, 8 * chain);
}

TEST(ReplayPipelined, TwoChipsOverlapAndChargeTheLink) {
  const timing::HwModel hw(timing_cfg());
  const timing::Trace trace = two_chip_trace(8);
  const timing::StepTiming pipelined = hw.replay_pipelined(trace);
  EXPECT_EQ(pipelined.link_transfers, 8);  // one crossing x 8 microbatches
  EXPECT_GT(pipelined.link_ps, 0);
  timing::Trace serial = trace;
  for (auto& op : serial.ops) op.chip = 0;
  const timing::StepTiming one_chip = hw.replay_pipelined(serial);
  // Two balanced stages overlap: strictly faster than one chip, no
  // better than the ideal 2x.
  EXPECT_LT(pipelined.total_ps, one_chip.total_ps);
  EXPECT_GE(2 * pipelined.total_ps, one_chip.total_ps);
  // Per-layer attribution covers every op.
  ASSERT_EQ(pipelined.layers.size(), 2u);
  EXPECT_EQ(pipelined.layers[0].ops, 1);
}

TEST(ReplayPipelined, RejectsNegativeChipStamps) {
  const timing::HwModel hw(timing_cfg());
  timing::Trace trace = two_chip_trace(4);
  trace.ops[0].chip = -1;
  EXPECT_THROW(hw.replay_pipelined(trace), std::invalid_argument);
  trace.ops[0].chip = 0;
  trace.ops[1].tp_chips = 0;
  EXPECT_THROW(hw.replay_pipelined(trace), std::invalid_argument);
}

// --- serving with sharded replay -------------------------------------

TEST(ServeShard, ShardReplayRequiresTiming) {
  nn::TransformerLM model = make_analog_model();
  serve::SchedulerConfig cfg;
  cfg.shard_replay = true;  // timing.enabled left false
  EXPECT_THROW(serve::Scheduler(model, cfg), std::invalid_argument);
}

TEST(ServeShard, PipelinedServeCountsLinkTrafficAndStaysBitExact) {
  const std::vector<int> prompt{3, 1, 4, 1, 5, 9};
  auto serve_tokens = [&](bool sharded, serve::Metrics* metrics_out) {
    util::ThreadPool::global().resize(1);
    nn::TransformerLM model = make_analog_model();
    shard::ChipSet chips(2, 2);
    const shard::PipelinePlan plan = shard::plan_round_robin(2, 2);
    if (sharded) shard::apply_plan(model, chips, plan);
    serve::SchedulerConfig cfg;
    cfg.timing = timing_cfg();
    cfg.shard_replay = sharded;
    serve::Scheduler sched(model, cfg);
    serve::Auditor auditor(sched);
    serve::RequestParams p;
    p.prompt = prompt;
    p.max_new_tokens = 4;
    p.stream_seed = 4242;
    const std::int64_t id = sched.submit(std::move(p));
    sched.run_until_idle();
    EXPECT_EQ(auditor.check_idle(), 0u) << auditor.violations().front();
    if (metrics_out != nullptr) *metrics_out = sched.metrics();
    return sched.request(id).tokens;
  };
  serve::Metrics sharded_m;
  const std::vector<int> sharded_tokens = serve_tokens(true, &sharded_m);
  EXPECT_GT(sharded_m.sim_time_ps, 0);
  EXPECT_GT(sharded_m.sim_link_transfers, 0);  // 2-chip pipeline crossed
  EXPECT_GT(sharded_m.sim_link_ps, 0);
  // Token bits: pipeline sharding at 2 chips == TP sharding at 1 chip
  // (chip invariance through the whole serving stack). The unsharded
  // LEGACY path is a different (also deterministic) reduction order, so
  // the comparison baseline is the 1-chip plan.
  auto one_chip_tokens = [&]() {
    util::ThreadPool::global().resize(1);
    nn::TransformerLM model = make_analog_model();
    shard::ChipSet chips(1, 1);
    shard::apply_plan(model, chips, shard::plan_tensor_parallel(2, 1));
    serve::SchedulerConfig cfg;
    cfg.timing = timing_cfg();
    cfg.shard_replay = true;
    serve::Scheduler sched(model, cfg);
    serve::RequestParams p;
    p.prompt = prompt;
    p.max_new_tokens = 4;
    p.stream_seed = 4242;
    const std::int64_t id = sched.submit(std::move(p));
    sched.run_until_idle();
    return sched.request(id).tokens;
  };
  EXPECT_EQ(sharded_tokens, one_chip_tokens());
}

// --- per-chip health -------------------------------------------------

TEST(ChipHealth, AggregatesByPlacementStamp) {
  nn::TransformerLM model = make_analog_model();
  shard::ChipSet chips(2, 1);
  shard::apply_plan(model, chips, shard::plan_round_robin(2, 2));
  runtime::IntegrityMonitor monitor(model, /*deploy_seed=*/900);
  const auto per_chip = monitor.chip_health();
  ASSERT_EQ(per_chip.size(), 2u);
  std::int64_t layers = 0;
  for (const auto& ch : per_chip) layers += ch.layers;
  EXPECT_EQ(layers, static_cast<std::int64_t>(monitor.health().size()));
  // block0's linears sit on chip 0; block1's + lm_head on chip 1.
  EXPECT_EQ(per_chip[0].chip, 0);
  EXPECT_EQ(per_chip[1].chip, 1);
  EXPECT_EQ(per_chip[0].layers, 4);   // block0: qkv, out, up, down
  EXPECT_EQ(per_chip[1].layers, 5);   // block1's four + lm_head
  EXPECT_EQ(per_chip[0].analog_layers, 4);
  // Unsharded models collapse to one chip-0 entry.
  shard::clear_plan(model);
  runtime::IntegrityMonitor flat(model, 900);
  const auto single = flat.chip_health();
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].layers,
            static_cast<std::int64_t>(flat.health().size()));
}

// --- metrics snapshot parity (satellite: renderer divergence fix) ----

TEST(MetricsSnapshot, RenderersAgreeAndSortOncePerVector) {
  serve::Metrics m;
  m.submitted = 3;
  m.finished = 3;
  for (int i = 0; i < 7; ++i) {
    m.ttft_s.push_back(0.01 * (7 - i));
    m.sim_ttft_us.push_back(5.0 * (i + 1));
    m.sim_tpot_us.push_back(1.0 + 0.25 * i);
  }
  m.sim_time_ps = 1000000;
  const serve::Metrics::Snapshot snap = m.snapshot();
  EXPECT_EQ(snap.ttft_p50_s, m.ttft_p50_s());
  EXPECT_EQ(snap.ttft_p95_s, m.ttft_p95_s());
  EXPECT_EQ(snap.sim_ttft_p50_us, m.sim_ttft_p50_us());
  EXPECT_EQ(snap.sim_ttft_p95_us, m.sim_ttft_p95_us());
  EXPECT_EQ(snap.sim_tpot_p50_us, m.sim_tpot_p50_us());
  EXPECT_EQ(snap.sim_tpot_p95_us, m.sim_tpot_p95_us());
  // One snapshot = one sort per sample vector (3 vectors), for BOTH
  // renderers — the old code re-sorted per renderer and could disagree
  // mid-serve when a sample landed between the two dumps.
  const std::int64_t before = serve::percentile_sort_count();
  const std::string text = m.to_string();
  EXPECT_EQ(serve::percentile_sort_count() - before, 3);
  const std::int64_t mid = serve::percentile_sort_count();
  const std::string json = m.to_json();
  EXPECT_EQ(serve::percentile_sort_count() - mid, 3);
  // Both renderers now report the full quantile set, including the sim
  // TPOT p95 the JSON used to omit.
  EXPECT_NE(text.find("TPOT p50"), std::string::npos);
  EXPECT_NE(text.find("p95"), std::string::npos);
  EXPECT_NE(json.find("\"sim_tpot_p95_us\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_link_ps\""), std::string::npos);
}

}  // namespace
}  // namespace nora
