// Event-driven hardware timing co-simulation tests.
//
// Three layers of guarantees: (1) the discrete-event kernel itself —
// strict time ordering, FIFO ties, zero-duration events that terminate,
// rejection of time moving backwards; (2) the hardware resource model —
// pipelining, shared-ADC serialization, replay goldens, and the in-order
// recurrence checked against a per-block event simulation; (3) the serving
// integration — simulated time is a pure function of the op trace
// (bit-identical at any tile thread count), timing.enabled=false is a
// strict no-op on the data path, and the batching policy moves latency
// but never tokens.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <stdexcept>
#include <vector>

#include "cim/tile_config.hpp"
#include "event_clock.hpp"
#include "nn/transformer.hpp"
#include "serve/scheduler.hpp"
#include "timing/hw_model.hpp"
#include "timing/resource.hpp"
#include "timing/trace.hpp"
#include "util/thread_pool.hpp"

namespace nora::timing {
namespace {

// ---------------------------------------------------------------- clock

TEST(EventClock, DispatchesInTimeOrder) {
  EventClock clock;
  std::vector<int> order;
  clock.schedule_at(30, [&] { order.push_back(3); });
  clock.schedule_at(10, [&] { order.push_back(1); });
  clock.schedule_at(20, [&] { order.push_back(2); });
  clock.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now_ps(), 30);
  EXPECT_EQ(clock.processed(), 3);
  EXPECT_TRUE(clock.empty());
}

TEST(EventClock, TiesDispatchInScheduleOrder) {
  EventClock clock;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    clock.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  clock.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventClock, ZeroDurationEventsTerminate) {
  // An event scheduling a follow-up at the CURRENT time is legal (a
  // zero-latency stage) and runs after already-queued same-timestamp
  // events — and a finite chain of them terminates rather than
  // spinning the clock.
  EventClock clock;
  std::vector<int> order;
  int chain = 0;
  std::function<void()> self = [&] {
    order.push_back(100 + chain);
    if (++chain < 3) clock.schedule_at(clock.now_ps(), self);
  };
  clock.schedule_at(5, self);
  clock.schedule_at(5, [&] { order.push_back(0); });
  clock.run();
  // First pass at t=5 runs, then the queued tie, then the re-armed
  // zero-duration chain.
  EXPECT_EQ(order, (std::vector<int>{100, 0, 101, 102}));
  EXPECT_EQ(clock.now_ps(), 5);
  EXPECT_EQ(clock.processed(), 4);
}

TEST(EventClock, RejectsTimeMovingBackwards) {
  EventClock clock;
  clock.schedule_at(10, [] {});
  clock.run();
  EXPECT_THROW(clock.schedule_at(9, [] {}), std::invalid_argument);
  EXPECT_THROW(clock.schedule_after(-1, [] {}), std::invalid_argument);
  EXPECT_THROW(clock.schedule_at(20, nullptr), std::invalid_argument);
  EXPECT_NO_THROW(clock.schedule_at(10, [] {}));  // t == now is legal
  clock.run();
  EXPECT_EQ(clock.now_ps(), 10);
}

TEST(EventClock, StepAdvancesOneEvent) {
  EventClock clock;
  int fired = 0;
  clock.schedule_at(3, [&] { ++fired; });
  clock.schedule_at(7, [&] { ++fired; });
  EXPECT_EQ(clock.pending(), 2u);
  EXPECT_TRUE(clock.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.now_ps(), 3);
  EXPECT_TRUE(clock.step());
  EXPECT_FALSE(clock.step());
  EXPECT_EQ(fired, 2);
}

// ------------------------------------------------------------- resource

TEST(Resource, SerializesGrantsFifo) {
  Resource adc;
  EXPECT_EQ(adc.acquire(0, 10), 10);   // idle: starts immediately
  EXPECT_EQ(adc.acquire(5, 10), 20);   // busy until 10: queues behind
  EXPECT_EQ(adc.acquire(50, 10), 60);  // idle gap: starts at ready time
  EXPECT_EQ(adc.busy_ps(), 30);
  EXPECT_EQ(adc.grants(), 3);
  EXPECT_EQ(adc.free_at_ps(), 60);
  EXPECT_THROW(adc.acquire(-1, 10), std::invalid_argument);
  EXPECT_THROW(adc.acquire(0, -10), std::invalid_argument);
  EXPECT_EQ(adc.acquire(60, 0), 60);  // zero-duration grant is legal
}

// ------------------------------------------------ reference simulator

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Discrete-event reference for HwModel::analog_op_ps: per-row-block DAC
// banks, per-tile crossbars and per-column ADC groups as separate
// Resources, driven by closures on an EventClock. `events_out` receives
// the events the clock dispatched.
std::int64_t des_analog_op_ps(const HwModel& hw, const TimingOp& op,
                              std::int64_t* events_out) {
  const TimingConfig& cfg = hw.config();
  if (op.tp_chips > 1 && op.tp_axis != ShardAxis::kNone) {
    const std::int64_t extent = op.tp_axis == ShardAxis::kRowBlocks
                                    ? op.row_blocks
                                    : op.col_blocks;
    const std::int64_t tc =
        std::min<std::int64_t>(op.tp_chips, std::max<std::int64_t>(1, extent));
    TimingOp sub = op;
    sub.tp_chips = 1;
    sub.tp_axis = ShardAxis::kNone;
    if (op.tp_axis == ShardAxis::kRowBlocks) {
      sub.row_blocks = ceil_div(op.row_blocks, tc);
    } else {
      sub.col_blocks = ceil_div(op.col_blocks, tc);
      sub.n = ceil_div(op.n, tc);
    }
    std::int64_t ps = des_analog_op_ps(hw, sub, events_out);
    if (tc > 1) {
      std::int64_t rounds = 1;
      if (op.tp_axis == ShardAxis::kRowBlocks) {
        rounds = 0;
        for (std::int64_t span = 1; span < tc; span *= 2) ++rounds;
      }
      const double bytes = static_cast<double>(op.n) * 4.0;
      const double hop_ns = cfg.costs.chip_link_latency_ns +
                            bytes / cfg.costs.chip_link_bytes_per_ns;
      ps += op.rows * rounds * std::llround(hop_ns * 1000.0);
    }
    return ps;
  }
  const std::int64_t tokens = op.rows;
  const std::int64_t R = op.row_blocks;
  const std::int64_t C = op.col_blocks;
  const std::int64_t depth = cfg.pipeline_depth;

  const std::int64_t base_cols = ceil_div(op.n, C);
  std::vector<std::int64_t> link_ps_by_col(static_cast<std::size_t>(C));
  for (std::int64_t c = 0; c < C; ++c) {
    const std::int64_t width =
        std::min(base_cols, op.n - c * base_cols) > 0
            ? std::min(base_cols, op.n - c * base_cols)
            : base_cols;
    const double ns = static_cast<double>(width) * 4.0 / cfg.link_bytes_per_ns;
    link_ps_by_col[static_cast<std::size_t>(c)] = std::llround(ns * 1000.0);
  }

  EventClock clock;
  std::vector<Resource> dac(static_cast<std::size_t>(R));
  std::vector<Resource> tile(static_cast<std::size_t>(R * C));
  std::vector<Resource> adc(static_cast<std::size_t>(C));
  Resource link;

  std::vector<std::int64_t> remaining(static_cast<std::size_t>(tokens), R * C);
  std::int64_t finish_ps = 0;

  std::function<void(std::int64_t)> start_token;
  std::function<void(std::int64_t, std::int64_t)> after_dac;
  std::function<void(std::int64_t, std::int64_t, std::int64_t)> after_xbar;
  std::function<void(std::int64_t, std::int64_t, std::int64_t)> after_adc;
  std::function<void(std::int64_t)> land;

  start_token = [&](std::int64_t t) {
    for (std::int64_t r = 0; r < R; ++r) {
      const std::int64_t done =
          dac[static_cast<std::size_t>(r)].acquire(clock.now_ps(), hw.dac_ps());
      clock.schedule_at(done, [&, t, r] { after_dac(t, r); });
    }
  };
  after_dac = [&](std::int64_t t, std::int64_t r) {
    for (std::int64_t c = 0; c < C; ++c) {
      const std::int64_t done = tile[static_cast<std::size_t>(r * C + c)]
                                    .acquire(clock.now_ps(), hw.xbar_ps());
      clock.schedule_at(done, [&, t, r, c] { after_xbar(t, r, c); });
    }
  };
  after_xbar = [&](std::int64_t t, std::int64_t r, std::int64_t c) {
    const std::int64_t done =
        adc[static_cast<std::size_t>(c)].acquire(clock.now_ps(), hw.adc_ps());
    clock.schedule_at(done, [&, t, r, c] { after_adc(t, r, c); });
  };
  after_adc = [&](std::int64_t t, std::int64_t r, std::int64_t c) {
    if (r == 0) {
      land(t);  // row block 0 accumulates in place: no transfer
      return;
    }
    const std::int64_t done = link.acquire(
        clock.now_ps(), link_ps_by_col[static_cast<std::size_t>(c)]);
    clock.schedule_at(done, [&, t] { land(t); });
  };
  land = [&](std::int64_t t) {
    if (--remaining[static_cast<std::size_t>(t)] == 0) {
      finish_ps = std::max(finish_ps, clock.now_ps());
      const std::int64_t next = t + depth;
      if (next < tokens) start_token(next);
    }
  };

  for (std::int64_t t = 0; t < std::min(depth, tokens); ++t) {
    start_token(t);
  }
  clock.run();

  if (events_out != nullptr) *events_out = clock.processed();
  return finish_ps;
}

// ------------------------------------------------------- config/hwmodel

TEST(TimingConfig, ValidatesKnobs) {
  TimingConfig ok;
  EXPECT_NO_THROW(ok.validate());

  TimingConfig bad = ok;
  bad.pipeline_depth = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.dac_frac = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.dac_frac = 0.7;  // dac + xbar >= 1 leaves no ADC stage
  bad.xbar_frac = 0.3;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.link_bytes_per_ns = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.costs.tile_read_latency_ns = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  TimingConfig zero_dac = ok;  // a zero-duration DAC stage is legal
  zero_dac.dac_frac = 0.0;
  EXPECT_NO_THROW(zero_dac.validate());
  const HwModel hw(zero_dac);
  EXPECT_EQ(hw.dac_ps(), 0);
  TimingOp op;
  op.kind = OpKind::kAnalogMvm;
  op.layer = "z";
  op.rows = 3;
  op.k = op.n = 8;
  EXPECT_EQ(hw.analog_op_ps(op), 3 * hw.tile_ps());
}

TEST(HwModel, StageSplitSumsExactly) {
  TimingConfig cfg;
  cfg.dac_frac = 0.17;  // awkward fractions: remainder lands in the ADC
  cfg.xbar_frac = 0.29;
  const HwModel hw(cfg);
  EXPECT_EQ(hw.dac_ps() + hw.xbar_ps() + hw.adc_ps(), hw.tile_ps());
  EXPECT_GT(hw.dac_ps(), 0);
  EXPECT_GT(hw.xbar_ps(), 0);
  EXPECT_GT(hw.adc_ps(), 0);
}

TEST(HwModel, PipeliningOverlapsTokens) {
  TimingConfig cfg;
  const HwModel d1(cfg);
  cfg.pipeline_depth = 4;
  const HwModel d4(cfg);

  TimingOp op;
  op.kind = OpKind::kAnalogMvm;
  op.layer = "l";
  op.rows = 16;
  op.k = op.n = 8;
  const std::int64_t serial = d1.analog_op_ps(op);
  const std::int64_t piped = d4.analog_op_ps(op);
  EXPECT_EQ(serial, 16 * d1.tile_ps());
  EXPECT_LT(piped, serial);
  // Throughput is bounded by the longest stage: depth 4 cannot beat
  // one-bottleneck-stage-per-token plus the fill latency.
  const std::int64_t bottleneck =
      std::max(d4.dac_ps(), std::max(d4.xbar_ps(), d4.adc_ps()));
  EXPECT_GE(piped, 15 * bottleneck + d4.tile_ps());
}

TEST(HwModel, SharedAdcSerializesRowBlocks) {
  // Two row blocks share the column's ADC group: their conversions
  // serialize, so the op takes longer than the single-block analytic
  // time even though crossbar reads fire in parallel.
  TimingConfig cfg;
  const HwModel hw(cfg);
  TimingOp op;
  op.kind = OpKind::kAnalogMvm;
  op.layer = "l";
  op.rows = 4;
  op.k = 32;
  op.n = 8;
  op.row_blocks = 1;
  op.col_blocks = 1;
  const std::int64_t single = hw.analog_op_ps(op);
  op.row_blocks = 2;
  const std::int64_t split = hw.analog_op_ps(op);
  EXPECT_EQ(single, 4 * hw.tile_ps());
  EXPECT_GT(split, single);
}

TEST(HwModel, ReplayGolden) {
  // Hard-coded integers: any change to event ordering, the stage split,
  // or resource accounting shows up here as a diff, not a flake.
  TimingConfig cfg;  // tile read 100 ns -> 100000 ps/tile
  const HwModel hw(cfg);
  Trace trace;
  TimingOp a;
  a.kind = OpKind::kAnalogMvm;
  a.layer = "attn.qkv";
  a.rows = 2;
  a.k = 24;
  a.n = 12;
  a.row_blocks = 2;
  a.col_blocks = 1;
  trace.ops.push_back(a);
  TimingOp d;
  d.kind = OpKind::kDigitalGemm;
  d.layer = "lm_head";
  d.rows = 2;
  d.k = 24;
  d.n = 30;
  d.macs = 2 * 24 * 30;
  trace.ops.push_back(d);

  // Worked example: stages split 15000/35000/50000 ps; the two row
  // blocks convert in parallel but share the column ADC, so token 0
  // lands at 100000 + 50000 (serialized ADC) + 750 (12-col x 4 B
  // partial-sum hop at 64 B/ns) = 150750; two serial tokens = 301500.
  // The digital op is DRAM-bound: 24*30*4 B / 64 B/ns = 45 ns.
  const StepTiming st = hw.replay(trace);
  EXPECT_EQ(st.total_ps, 346500);
  EXPECT_EQ(st.events, 14);
  ASSERT_EQ(st.layers.size(), 2u);
  EXPECT_EQ(st.layers[0].layer, "attn.qkv");
  EXPECT_EQ(st.layers[0].ps, 301500);
  EXPECT_EQ(st.layers[1].layer, "lm_head");
  EXPECT_EQ(st.layers[1].ps, 45000);
}

TEST(HwModel, PipelinedGoldens) {
  // Depth > 1 pinned exactly (values from the event-driven simulator).
  TimingConfig cfg;
  cfg.pipeline_depth = 4;
  const HwModel hw(cfg);
  TimingOp op;
  op.kind = OpKind::kAnalogMvm;
  op.layer = "l";
  op.rows = 16;
  op.k = 48;
  op.n = 20;
  op.row_blocks = 3;
  op.col_blocks = 2;
  std::int64_t events = 0;
  EXPECT_EQ(hw.analog_op_ps(op, &events), 2451250);
  EXPECT_EQ(events, 304);

  op.row_blocks = 4;
  op.col_blocks = 2;
  op.tp_chips = 2;
  op.tp_axis = ShardAxis::kRowBlocks;
  EXPECT_EQ(hw.analog_op_ps(op, &events), 2011250);
  EXPECT_EQ(events, 192);
}

TEST(HwModel, RecurrenceMatchesEventSimulation) {
  // Fixed-seed sweep over the corners the exactness argument leans on:
  // deep in-flight windows, ragged column widths, zero-duration DAC and
  // crossbar stages, tiles of a few ps, hops that round to 0 ps, and
  // tensor-parallel splits (whose per-chip sub-grid recurses).
  std::mt19937_64 rng(20261017);
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  const auto frac = [&pick](std::int64_t hi) {  // 0 one time in four
    return pick(0, 3) == 0 ? 0.0 : 0.05 * static_cast<double>(pick(1, hi));
  };
  constexpr int kConfigs = 20000;
  for (int i = 0; i < kConfigs; ++i) {
    TimingConfig cfg;
    cfg.pipeline_depth = static_cast<int>(pick(1, 9));
    cfg.dac_frac = frac(6);
    cfg.xbar_frac = frac(8);
    if (pick(0, 4) == 0) {  // a few ps per tile: stages round to 0-9 ps
      cfg.costs.tile_read_latency_ns = 0.001 * static_cast<double>(pick(1, 9));
    }
    // 1e6 B/ns rounds every partial-sum hop to 0 ps.
    cfg.link_bytes_per_ns =
        pick(0, 4) == 0 ? 1e6 : 8.0 * static_cast<double>(pick(1, 16));
    const HwModel hw(cfg);

    TimingOp op;
    op.kind = OpKind::kAnalogMvm;
    op.layer = "sweep";
    // The oracle allocates a closure per event, so nested picks skew
    // toward small grids, and rows are capped near 80 events per op (one
    // row always runs; a single tile keeps up to 40 rows).
    op.row_blocks = pick(1, pick(1, 7));
    op.col_blocks = pick(1, pick(1, 7));
    const std::int64_t R = op.row_blocks;
    const std::int64_t C = op.col_blocks;
    const std::int64_t max_rows =
        R * C == 1 ? 40 : 80 / (R + 2 * R * C + (R - 1) * C);
    op.rows = std::max<std::int64_t>(
        1, std::min(pick(1, pick(1, 40)), max_rows));
    op.k = 8 * op.row_blocks;
    op.n = pick(1, 12 * op.col_blocks);  // ragged, possibly < col_blocks
    if (pick(0, 3) == 0) {
      op.tp_chips = static_cast<int>(pick(2, 8));
      op.tp_axis = pick(0, 1) == 0 ? ShardAxis::kRowBlocks
                                   : ShardAxis::kColBlocks;
    }

    std::int64_t want_events = -1;
    std::int64_t got_events = -2;
    const std::int64_t want = des_analog_op_ps(hw, op, &want_events);
    const std::int64_t got = hw.analog_op_ps(op, &got_events);
    ASSERT_EQ(got, want) << "config " << i << ": depth " << cfg.pipeline_depth
                         << " grid " << op.row_blocks << "x" << op.col_blocks
                         << " rows " << op.rows << " n " << op.n << " tp "
                         << op.tp_chips;
    ASSERT_EQ(got_events, want_events) << "config " << i;
  }
}

TEST(HwModel, RejectsMalformedOps) {
  const HwModel hw(TimingConfig{});
  TimingOp op;
  op.kind = OpKind::kAnalogMvm;
  op.layer = "bad";
  op.rows = 0;  // no tokens
  op.k = op.n = 8;
  EXPECT_THROW(hw.analog_op_ps(op), std::invalid_argument);
}

// ---------------------------------------------------- serve integration

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

cim::TileConfig tiny_tiles(int n_threads) {
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 16;
  cfg.tile_cols = 12;
  cfg.in_noise = 0.02f;
  cfg.n_threads = n_threads;
  return cfg;
}

nn::TransformerLM analog_model(int n_threads) {
  nn::TransformerLM model(tiny_arch());
  std::uint64_t seed = 900;
  for (auto* lin : model.linear_layers()) {
    lin->to_analog(tiny_tiles(n_threads), {}, seed++);
  }
  return model;
}

struct ServedSim {
  std::vector<std::vector<int>> tokens;
  std::vector<std::int64_t> first_token_ps;
  std::vector<std::int64_t> finish_ps;
  std::int64_t sim_ps = 0;
  std::int64_t sim_events = 0;
};

ServedSim serve_with_timing(nn::TransformerLM& model,
                            serve::SchedulerConfig cfg) {
  serve::Scheduler sched(model, cfg);
  std::vector<std::int64_t> ids;
  std::uint64_t stream = 101;
  for (const auto& prompt : std::vector<std::vector<int>>{
           {3, 1, 4, 1, 5}, {2, 7, 1, 8}, {9, 9, 9}, {1, 2, 3, 4, 5, 6}}) {
    serve::RequestParams p;
    p.prompt = prompt;
    p.max_new_tokens = 5;
    p.stream_seed = stream++;
    ids.push_back(sched.submit(std::move(p)));
  }
  while (sched.step()) {
  }
  ServedSim out;
  for (const auto id : ids) {
    const auto rec = sched.request(id);
    out.tokens.push_back(rec.tokens);
    out.first_token_ps.push_back(rec.sim_first_token_ps);
    out.finish_ps.push_back(rec.sim_finish_ps);
  }
  out.sim_ps = sched.sim_now_ps();
  out.sim_events = sched.metrics().sim_events;
  return out;
}

TEST(TimingServe, SimTimeInvariantUnderTileThreadCount) {
  // The replay is a pure function of the op trace; the trace is emitted
  // only from the step-driving thread. So every simulated timestamp is
  // bit-identical no matter how many threads the tile MVPs fan across.
  util::ThreadPool::global().resize(4);
  serve::SchedulerConfig cfg;
  cfg.timing.enabled = true;
  auto m1 = analog_model(1);
  auto m4 = analog_model(4);
  const ServedSim a = serve_with_timing(m1, cfg);
  const ServedSim b = serve_with_timing(m4, cfg);
  util::ThreadPool::global().resize(1);

  EXPECT_EQ(a.tokens, b.tokens);  // serving itself is thread-invariant
  EXPECT_GT(a.sim_ps, 0);
  EXPECT_EQ(a.sim_ps, b.sim_ps);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.first_token_ps, b.first_token_ps);
  EXPECT_EQ(a.finish_ps, b.finish_ps);
  for (std::size_t i = 0; i < a.first_token_ps.size(); ++i) {
    EXPECT_GT(a.first_token_ps[i], 0);
    EXPECT_GE(a.finish_ps[i], a.first_token_ps[i]);
  }
}

TEST(TimingServe, DisabledTimingIsStrictNoOp) {
  auto model = analog_model(1);
  serve::SchedulerConfig off;  // timing.enabled defaults to false
  const ServedSim cold = serve_with_timing(model, off);
  serve::SchedulerConfig on;
  on.timing.enabled = true;
  const ServedSim hot = serve_with_timing(model, on);

  EXPECT_EQ(cold.tokens, hot.tokens);  // co-sim never perturbs the data path
  EXPECT_EQ(cold.sim_ps, 0);
  EXPECT_EQ(cold.sim_events, 0);
  for (const auto ps : cold.first_token_ps) EXPECT_EQ(ps, -1);
  EXPECT_GT(hot.sim_ps, 0);
}

TEST(TimingServe, BatchPolicyMovesLatencyNotTokens) {
  auto model = analog_model(1);
  serve::SchedulerConfig growth;
  growth.timing.enabled = true;
  serve::SchedulerConfig latency = growth;
  latency.batch_policy = serve::BatchPolicy::kLatencyAware;
  latency.prefill_tokens_per_step = 5;

  const ServedSim g = serve_with_timing(model, growth);
  const ServedSim l = serve_with_timing(model, latency);
  EXPECT_EQ(g.tokens, l.tokens);  // admission must never change outputs
  // Staggered prefills: the first request's first token lands earlier
  // than under co-admitted growth prefill.
  EXPECT_LT(l.first_token_ps[0], g.first_token_ps[0]);
}

TEST(TimingServe, LatencyAwareCapsCoAdmittedPrefill) {
  auto model = analog_model(1);
  serve::SchedulerConfig cfg;
  cfg.timing.enabled = true;
  cfg.batch_policy = serve::BatchPolicy::kLatencyAware;
  cfg.prefill_tokens_per_step = 5;  // exactly one prompt below
  serve::Scheduler sched(model, cfg);
  for (int i = 0; i < 4; ++i) {
    serve::RequestParams p;
    p.prompt = {1, 2, 3, 4, 5};
    p.max_new_tokens = 3;
    p.stream_seed = 200 + i;
    sched.submit(std::move(p));
  }
  sched.step();
  const auto snap = sched.audit_snapshot();
  EXPECT_EQ(snap.running, 1u);  // budget admitted one prompt, not four
  EXPECT_EQ(snap.queued, 3u);
  while (sched.step()) {
  }
  EXPECT_EQ(sched.audit_snapshot().queued, 0u);
}

TEST(TimingServe, PolicyParsing) {
  EXPECT_EQ(serve::batch_policy_from_string("growth"),
            serve::BatchPolicy::kGrowth);
  EXPECT_EQ(serve::batch_policy_from_string("latency-aware"),
            serve::BatchPolicy::kLatencyAware);
  EXPECT_EQ(serve::batch_policy_from_string("LATENCY"),
            serve::BatchPolicy::kLatencyAware);
  EXPECT_THROW(serve::batch_policy_from_string("bogus"),
               std::invalid_argument);
  EXPECT_STREQ(serve::to_string(serve::BatchPolicy::kGrowth), "growth");
  EXPECT_STREQ(serve::to_string(serve::BatchPolicy::kLatencyAware),
               "latency");
}

}  // namespace
}  // namespace nora::timing
