// Tests for the runtime integrity subsystem: ABFT checksum columns
// (exact-zero residual property, single-flip detection, data-path
// invariance), refresh-from-seed, the IntegrityMonitor escalation
// ladder, and the core satellites (loud set_read_time, stats skipping
// degraded layers).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cim/analog_matmul.hpp"
#include "core/nora.hpp"
#include "eval/evaluator.hpp"
#include "model/zoo.hpp"
#include "nn/transformer.hpp"
#include "runtime/integrity_monitor.hpp"
#include "tensor/ops.hpp"

namespace nora {
namespace {

Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed,
                     float std_dev = 0.5f) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.fill_gaussian(rng, std_dev);
  return m;
}

// ---------------------------------------------------------------------
// ABFT checksum property: with every noise/fault knob off the residual
// is exactly zero — no float-rounding floor — for every tile shape,
// including ragged last tiles, NORA-rescaled weights, spare-remapped
// columns and post-repair programming noise.

struct AbftShape {
  std::int64_t rows, cols;
  int tile_rows, tile_cols;
  int spare_cols;
  float dead_col_rate;
  float prog_noise_scale;
  bool nora_s;
};

class AbftZeroResidual : public ::testing::TestWithParam<AbftShape> {};

TEST_P(AbftZeroResidual, ExactlyZeroWhenKnobsOff) {
  const AbftShape p = GetParam();
  const Matrix w = random_matrix(p.rows, p.cols, 7 + p.rows);
  const Matrix x = random_matrix(3, p.rows, 11 + p.cols, 1.0f);
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.tile_rows = p.tile_rows;
  cfg.tile_cols = p.tile_cols;
  cfg.abft_checksum = true;
  cfg.spare_cols = p.spare_cols;
  cfg.faults.dead_col_rate = p.dead_col_rate;
  cfg.prog_noise_scale = p.prog_noise_scale;
  if (p.prog_noise_scale > 0.0f) cfg.max_program_retries = 2;
  std::vector<float> s;
  if (p.nora_s) {
    util::Rng sr(99);
    s.resize(static_cast<std::size_t>(p.rows));
    for (auto& v : s) v = static_cast<float>(std::exp(sr.gaussian(0.0, 0.5)));
  }
  cim::AnalogMatmul unit(w, s, cfg, 4242);
  ASSERT_TRUE(unit.abft_enabled());
  unit.forward(x, cim::stream_keys(0, x.rows()));
  const cim::AbftStats stats = unit.abft_stats();
  EXPECT_GT(stats.checks, 0);
  EXPECT_EQ(stats.flags, 0);
  // Exact: the as-programmed signature and the live checksum read run
  // the identical accumulation, so an unchanged array is bitwise zero.
  EXPECT_EQ(stats.residual_max, 0.0);
  EXPECT_EQ(stats.residual_abs_sum, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    TileShapeSweep, AbftZeroResidual,
    ::testing::Values(
        AbftShape{64, 48, 32, 24, 0, 0.0f, 0.0f, false},   // exact grid
        AbftShape{70, 50, 32, 24, 0, 0.0f, 0.0f, false},   // ragged both dims
        AbftShape{33, 17, 32, 24, 0, 0.0f, 0.0f, false},   // 1-wide last tiles
        AbftShape{16, 8, 64, 64, 0, 0.0f, 0.0f, false},    // single small tile
        AbftShape{70, 50, 32, 24, 0, 0.0f, 0.0f, true},    // NORA rescale
        AbftShape{64, 40, 32, 28, 8, 0.3f, 0.0f, false},   // spare-remapped
        AbftShape{70, 50, 32, 24, 0, 0.0f, 4.0f, false},   // post-repair noise
        AbftShape{64, 40, 32, 28, 8, 0.3f, 4.0f, true}));  // everything

// A single device flipped after deployment must flag within ONE forward
// pass when the threshold is noise-free (any change is detectable).
TEST(AbftDetection, SingleFlippedDeviceFlagsWithinOneForward) {
  const Matrix w = random_matrix(70, 50, 101);
  const Matrix x = random_matrix(1, 70, 202, 1.0f);
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.tile_rows = 32;
  cfg.tile_cols = 24;
  cfg.abft_checksum = true;
  cim::AnalogMatmul unit(w, {}, cfg, 4242);
  unit.forward(x, cim::stream_keys(0, x.rows()));
  EXPECT_EQ(unit.abft_stats().flags, 0);
  unit.reset_stats();
  unit.wear_stuck(/*k=*/5, /*n=*/7, 0.77f);  // silent post-deployment flip
  unit.forward(x, cim::stream_keys(1, x.rows()));
  EXPECT_GE(unit.abft_stats().flags, 1);
  EXPECT_GT(unit.abft_stats().residual_max, 0.0);
}

// Under the full Table II noise stack the 4-sigma threshold keeps the
// false-positive rate negligible.
TEST(AbftDetection, NoFalsePositiveStormUnderTableIINoise) {
  const Matrix w = random_matrix(70, 50, 101);
  const Matrix x = random_matrix(8, 70, 202, 1.0f);
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 32;
  cfg.tile_cols = 24;
  cfg.abft_checksum = true;
  cim::AnalogMatmul unit(w, {}, cfg, 4242);
  unit.forward(x, cim::stream_keys(0, x.rows()));
  const cim::AbftStats stats = unit.abft_stats();
  EXPECT_GT(stats.checks, 0);
  EXPECT_LE(stats.flag_rate(), 0.05);
}

// Enabling the checksum column must not perturb the data path: the
// checksum read draws from a dedicated RNG stream.
TEST(AbftDetection, DataPathBitIdenticalWithAbftOnOrOff) {
  const Matrix w = random_matrix(70, 50, 101);
  const Matrix x = random_matrix(5, 70, 202, 1.0f);
  cim::TileConfig off = cim::TileConfig::paper_table2();
  off.tile_rows = 32;
  off.tile_cols = 24;
  cim::TileConfig on = off;
  on.abft_checksum = true;
  cim::AnalogMatmul unit_off(w, {}, off, 4242);
  cim::AnalogMatmul unit_on(w, {}, on, 4242);
  for (int pass = 0; pass < 2; ++pass) {
    const auto keys = cim::stream_keys(pass, x.rows());
    const Matrix y_off = unit_off.forward(x, keys);
    const Matrix y_on = unit_on.forward(x, keys);
    ASSERT_EQ(y_off.rows(), y_on.rows());
    for (std::int64_t i = 0; i < y_off.size(); ++i) {
      ASSERT_EQ(y_off.data()[i], y_on.data()[i]) << "pass " << pass << " i=" << i;
    }
  }
}

// Transient upsets clear on the next re-read; wear survives it.
TEST(AbftDetection, ReReadClearsUpsetsButNotWear) {
  const Matrix w = random_matrix(64, 48, 55);
  const Matrix x = random_matrix(2, 64, 56, 1.0f);
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.tile_rows = 32;
  cfg.tile_cols = 24;
  cfg.abft_checksum = true;
  cim::AnalogMatmul unit(w, {}, cfg, 77);
  unit.upset_device(3, 4, 0.8f);
  unit.forward(x, cim::stream_keys(0, x.rows()));
  EXPECT_GT(unit.abft_stats().flags, 0);
  unit.reset_stats();
  unit.set_read_time(0.0f);  // analog re-read: effective state re-derived
  unit.forward(x, cim::stream_keys(1, x.rows()));
  EXPECT_EQ(unit.abft_stats().flags, 0);

  unit.wear_stuck(3, 4, 0.8f);
  unit.reset_stats();
  unit.set_read_time(0.0f);
  unit.forward(x, cim::stream_keys(2, x.rows()));
  EXPECT_GT(unit.abft_stats().flags, 0) << "wear must survive a re-read";
  ASSERT_EQ(unit.wear().size(), 1u);
}

// ---------------------------------------------------------------------
// Model-level fixtures: a micro transformer (untrained — the runtime
// machinery cares about state management, not accuracy).

eval::SynthLambadaConfig micro_task_cfg() {
  eval::SynthLambadaConfig t;
  t.n_queries = 4;
  return t;
}

std::unique_ptr<nn::TransformerLM> micro_model() {
  nn::TransformerConfig arch;
  const auto t = micro_task_cfg();
  arch.vocab_size = t.vocab_size();
  arch.max_seq = t.seq_len;
  arch.d_model = 32;
  arch.n_layers = 1;
  arch.n_heads = 4;
  arch.d_ff = 64;
  arch.seed = 5;
  return std::make_unique<nn::TransformerLM>(arch);
}

void serve_traffic(nn::TransformerLM& model, const eval::SynthLambada& task) {
  const auto traffic = task.calibration_set(2);
  for (std::size_t i = 0; i < traffic.size(); ++i) model.infer(traffic[i], i);
}

// Refreshing a layer from its deployment seed restores the exact
// as-deployed analog state (same RNG streams, drift reset).
TEST(RefreshAnalogLayer, RestoresAsDeployedStateBitwise) {
  const Matrix x = random_matrix(3, 32, 91, 1.0f);
  util::Rng wrng(17);
  nn::Linear lin("layer", 32, 24, wrng, 0.3f);
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.drift_enabled = true;
  cfg.abft_checksum = true;
  const std::uint64_t deploy_seed = 2025;
  lin.to_analog(cfg, {}, util::derive_seed(deploy_seed, lin.name()));
  const Matrix y0 = lin.forward_keyed(x, cim::stream_keys(0, x.rows()));
  lin.analog()->set_read_time(86400.0f);
  const Matrix y_drift = lin.forward_keyed(x, cim::stream_keys(1, x.rows()));
  EXPECT_GT(ops::mse(y_drift, y0), 0.0);
  core::refresh_analog_layer(lin, deploy_seed);
  const Matrix y1 = lin.forward_keyed(x, cim::stream_keys(0, x.rows()));
  for (std::int64_t i = 0; i < y0.size(); ++i) {
    ASSERT_EQ(y0.data()[i], y1.data()[i]) << "i=" << i;
  }
}

TEST(RefreshAnalogLayer, ReplaysWearOntoFreshProgram) {
  const Matrix x = random_matrix(2, 32, 92, 1.0f);
  util::Rng wrng(18);
  nn::Linear lin("layer", 32, 24, wrng, 0.3f);
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.abft_checksum = true;
  lin.to_analog(cfg, {}, util::derive_seed(1u, lin.name()));
  lin.analog()->wear_stuck(4, 6, 0.77f);
  core::refresh_analog_layer(lin, 1u);
  ASSERT_EQ(lin.analog()->wear().size(), 1u);
  lin.analog()->reset_stats();
  lin.forward_keyed(x, cim::stream_keys(0, x.rows()));
  EXPECT_GT(lin.analog()->abft_stats().flags, 0)
      << "wear must survive a refresh: reprogramming cannot fix silicon";
  lin.to_digital();
  EXPECT_THROW(core::refresh_analog_layer(lin, 1u), std::logic_error);
}

// Satellite: set_read_time must fail loudly when drift was never
// deployed — a lifetime sweep would otherwise silently measure nothing.
TEST(SetReadTime, ThrowsLoudlyWithoutDriftDeployment) {
  auto model = micro_model();
  const eval::SynthLambada task(micro_task_cfg());
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.nora.enabled = false;
  core::deploy_analog(*model, task, opts);
  EXPECT_THROW(core::set_read_time(*model, 3600.0f), std::logic_error);
  EXPECT_NO_THROW(core::set_read_time(*model, 0.0f));  // t = 0 is a no-op

  model->to_digital();
  opts.tile.drift_enabled = true;
  core::deploy_analog(*model, task, opts);
  EXPECT_NO_THROW(core::set_read_time(*model, 3600.0f));
}

// Satellite: stats helpers skip degraded-to-digital and never-forwarded
// layers instead of emitting misleading zero rows.
TEST(ScalingFactorStats, SkipsDegradedAndIdleLayers) {
  auto model = micro_model();
  const eval::SynthLambada task(micro_task_cfg());
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.nora.enabled = false;
  core::deploy_analog(*model, task, opts);
  // No forwards yet: no layer has alpha statistics, so no rows at all.
  EXPECT_TRUE(core::scaling_factor_stats(*model).empty());
  const auto linears = model->linear_layers();
  linears[0]->to_digital();  // simulate a degraded layer
  serve_traffic(*model, task);
  const auto stats = core::scaling_factor_stats(*model);
  EXPECT_EQ(stats.size(), linears.size() - 1);
  for (const auto& st : stats) {
    EXPECT_NE(st.layer, linears[0]->name());
    EXPECT_GT(st.alpha_gamma_gmax, 0.0);
  }
}

// ---------------------------------------------------------------------
// IntegrityMonitor escalation ladder.

TEST(IntegrityMonitor, DriftBeyondBudgetWalksReReadThenRefresh) {
  auto model = micro_model();
  const eval::SynthLambada task(micro_task_cfg());
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.tile.drift_enabled = true;
  opts.tile.abft_checksum = true;
  opts.nora.enabled = false;
  faults::DeploymentReport report;
  core::deploy_analog(*model, task, opts, &report);

  runtime::MonitorConfig mc;
  mc.policy = runtime::RefreshPolicy::kWatchdog;
  mc.ewma_alpha = 1.0;  // judge each window on its own (deterministic)
  mc.flag_rate_budget = 0.01;
  mc.fallback_after_refreshes = 1;
  runtime::IntegrityMonitor monitor(*model, opts.seed, mc, &report);

  monitor.advance_to(2592000.0f);  // 1 month: drift spread flags everywhere
  serve_traffic(*model, task);
  EXPECT_GT(monitor.inspect(), 0);  // rung 1: analog re-read
  EXPECT_GT(monitor.total_rereads(), 0);
  EXPECT_EQ(monitor.total_refreshes(), 0);

  serve_traffic(*model, task);
  EXPECT_GT(monitor.inspect(), 0);  // re-read cannot cure drift -> refresh
  EXPECT_GT(monitor.total_refreshes(), 0);
  EXPECT_EQ(monitor.total_fallbacks(), 0);

  serve_traffic(*model, task);
  EXPECT_EQ(monitor.inspect(), 0);  // refresh reset drift: all clean
  EXPECT_EQ(monitor.total_fallbacks(), 0);
  EXPECT_TRUE(model->is_analog());

  // Report counters mirror the monitor's per-layer health.
  for (const auto& h : monitor.health()) {
    const faults::LayerReport* rep = report.find(h.layer);
    ASSERT_NE(rep, nullptr) << h.layer;
    EXPECT_EQ(rep->runtime_rereads, h.rereads);
    EXPECT_EQ(rep->runtime_refreshes, h.refreshes);
    EXPECT_FALSE(rep->runtime_fallback);
    EXPECT_GT(rep->abft_checks, 0);
  }
  EXPECT_EQ(report.runtime_rereads(), monitor.total_rereads());
  EXPECT_EQ(report.runtime_refreshes(), monitor.total_refreshes());
}

TEST(IntegrityMonitor, WearSurvivingRefreshFallsBackToDigital) {
  auto model = micro_model();
  const eval::SynthLambada task(micro_task_cfg());
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.tile.abft_checksum = true;
  opts.nora.enabled = false;
  faults::DeploymentReport report;
  core::deploy_analog(*model, task, opts, &report);

  const auto linears = model->linear_layers();
  nn::Linear* victim = linears[1];
  victim->analog()->wear_stuck(2, 3, 0.77f);  // permanent silicon damage

  runtime::MonitorConfig mc;
  mc.policy = runtime::RefreshPolicy::kWatchdog;
  mc.ewma_alpha = 1.0;
  mc.flag_rate_budget = 0.01;
  mc.fallback_after_refreshes = 1;
  runtime::IntegrityMonitor monitor(*model, opts.seed, mc, &report);

  // Ladder: re-read (window 1) -> refresh + wear replay (window 2) ->
  // digital fallback (window 3).
  for (int window = 0; window < 3; ++window) {
    serve_traffic(*model, task);
    EXPECT_GT(monitor.inspect(), 0) << "window " << window;
  }
  EXPECT_FALSE(victim->is_analog());
  const runtime::LayerHealth* h = monitor.find(victim->name());
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->fallback);
  EXPECT_EQ(h->rereads, 1);
  EXPECT_EQ(h->refreshes, 1);
  const faults::LayerReport* rep = report.find(victim->name());
  ASSERT_NE(rep, nullptr);
  EXPECT_TRUE(rep->runtime_fallback);
  EXPECT_FALSE(rep->analog);
  EXPECT_EQ(report.runtime_fallbacks(), 1);
  // The healthy layers were never touched.
  for (auto* lin : linears) {
    if (lin == victim) continue;
    EXPECT_TRUE(lin->is_analog());
    const runtime::LayerHealth* hh = monitor.find(lin->name());
    ASSERT_NE(hh, nullptr);
    EXPECT_EQ(hh->rereads + hh->refreshes, 0) << lin->name();
  }
  // And the serving loop keeps running cleanly after the fallback.
  serve_traffic(*model, task);
  EXPECT_EQ(monitor.inspect(), 0);
}

TEST(IntegrityMonitor, PeriodicPolicyRefreshesOnSchedule) {
  auto model = micro_model();
  const eval::SynthLambada task(micro_task_cfg());
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.tile.drift_enabled = true;
  opts.nora.enabled = false;
  core::deploy_analog(*model, task, opts);
  const int n_analog = static_cast<int>(model->linear_layers().size());

  runtime::MonitorConfig mc;
  mc.policy = runtime::RefreshPolicy::kPeriodic;
  mc.refresh_period_s = 100.0f;
  runtime::IntegrityMonitor monitor(*model, opts.seed, mc);
  EXPECT_EQ(monitor.advance_to(50.0f), 0);
  EXPECT_EQ(monitor.advance_to(150.0f), n_analog);  // every layer aged out
  EXPECT_EQ(monitor.advance_to(200.0f), 0);         // epochs were reset
  EXPECT_EQ(monitor.total_refreshes(), n_analog);
  EXPECT_THROW(monitor.advance_to(100.0f), std::invalid_argument);
}

TEST(IntegrityMonitor, VirtualClockZeroAdvanceIsLegal) {
  // advance_to(now()) is a zero-duration window: legal, side-effect
  // free, and terminates immediately (only strictly-backward time is
  // rejected). A zero refresh period likewise means "disabled", not a
  // zero-length epoch that would refresh every layer on every call.
  auto model = micro_model();
  const eval::SynthLambada task(micro_task_cfg());
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.nora.enabled = false;
  core::deploy_analog(*model, task, opts);

  runtime::MonitorConfig mc;
  mc.policy = runtime::RefreshPolicy::kPeriodic;
  mc.refresh_period_s = 100.0f;
  runtime::IntegrityMonitor monitor(*model, opts.seed, mc);
  EXPECT_EQ(monitor.advance_to(0.0f), 0);  // zero-advance from t=0
  monitor.advance_to(50.0f);
  EXPECT_EQ(monitor.advance_to(50.0f), 0);
  EXPECT_EQ(monitor.advance_to(50.0f), 0);  // repeatable, no spinning
  EXPECT_FLOAT_EQ(monitor.now(), 50.0f);
  EXPECT_EQ(monitor.total_refreshes(), 0);

  runtime::MonitorConfig zero;
  zero.policy = runtime::RefreshPolicy::kPeriodic;
  zero.refresh_period_s = 0.0f;
  runtime::IntegrityMonitor disabled(*model, opts.seed, zero);
  EXPECT_EQ(disabled.advance_to(1e6f), 0);
  EXPECT_EQ(disabled.total_refreshes(), 0);
}

TEST(IntegrityMonitor, NeverPolicyObservesWithoutActing) {
  auto model = micro_model();
  const eval::SynthLambada task(micro_task_cfg());
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.tile.drift_enabled = true;
  opts.tile.abft_checksum = true;
  opts.nora.enabled = false;
  faults::DeploymentReport report;
  core::deploy_analog(*model, task, opts, &report);

  runtime::MonitorConfig mc;
  mc.policy = runtime::RefreshPolicy::kNever;
  mc.ewma_alpha = 1.0;
  mc.flag_rate_budget = 0.01;
  runtime::IntegrityMonitor monitor(*model, opts.seed, mc, &report);
  monitor.advance_to(2592000.0f);
  serve_traffic(*model, task);
  EXPECT_EQ(monitor.inspect(), 0);  // records, never acts
  EXPECT_EQ(monitor.total_rereads() + monitor.total_refreshes(), 0);
  EXPECT_TRUE(model->is_analog());
  bool any_flags = false;
  for (const auto& l : report.layers) any_flags |= l.abft_flags > 0;
  EXPECT_TRUE(any_flags) << "the symptom must still be on record";
  EXPECT_NE(report.to_string().find("runtime:"), std::string::npos);
}

TEST(RefreshPolicy, RoundTripsThroughStrings) {
  for (const auto p : {runtime::RefreshPolicy::kNever,
                       runtime::RefreshPolicy::kPeriodic,
                       runtime::RefreshPolicy::kWatchdog}) {
    EXPECT_EQ(runtime::refresh_policy_from_string(runtime::to_string(p)), p);
  }
  EXPECT_THROW(runtime::refresh_policy_from_string("sometimes"),
               std::invalid_argument);
}

TEST(RefreshPolicy, ParsingIsCaseInsensitive) {
  // CLI flags and config files arrive in every capitalization.
  EXPECT_EQ(runtime::refresh_policy_from_string("Watchdog"),
            runtime::RefreshPolicy::kWatchdog);
  EXPECT_EQ(runtime::refresh_policy_from_string("PERIODIC"),
            runtime::RefreshPolicy::kPeriodic);
  EXPECT_EQ(runtime::refresh_policy_from_string("NeVeR"),
            runtime::RefreshPolicy::kNever);
  // Unknown names still throw, echoing the original spelling.
  try {
    runtime::refresh_policy_from_string("SomeTimes");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SomeTimes"), std::string::npos);
  }
}

}  // namespace
}  // namespace nora
