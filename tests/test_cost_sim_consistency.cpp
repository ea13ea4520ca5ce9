// Cross-validation: the analytic cost model's conversion counts must
// match what the tile simulator actually performs (its ADC-read and
// DAC-sample counters). Keeps the two views of the hardware in sync.
#include <gtest/gtest.h>

#include <cmath>

#include "cim/analog_matmul.hpp"
#include "cost/cost_model.hpp"
#include "timing/hw_model.hpp"

namespace nora {
namespace {

TEST(CostSimConsistency, ConversionCountsMatchSimulator) {
  const std::int64_t k = 90, n = 70, tokens = 5;
  util::Rng rng(1);
  Matrix w(k, n);
  w.fill_gaussian(rng, 0.5f);
  Matrix x(tokens, k);
  x.fill_gaussian(rng, 1.0f);

  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 32;  // force a 3 x 3 tile grid
  cfg.tile_cols = 32;
  cfg.bound_management = false;

  cim::AnalogMatmul unit(w, {}, cfg, 2);
  unit.forward(x, cim::stream_keys(0, x.rows()));

  // Cost model's implied conversion counts.
  const cost::DeviceCosts d;
  const auto c = cost::analog_linear_cost(k, n, tokens, cfg, d);
  const double row_blocks = 3.0;  // ceil(90 / 32)
  const double expected_adc = tokens * row_blocks * n;
  const double expected_dac = static_cast<double>(tokens) * k;

  EXPECT_EQ(static_cast<double>(unit.adc_reads()), expected_adc);
  EXPECT_EQ(static_cast<double>(unit.stats().dac_samples), expected_dac);
  // And the model's energies are built from exactly those counts.
  EXPECT_NEAR(c.adc_pj,
              expected_adc * d.adc_fom_fj_per_step * cfg.adc_steps() * 1e-3,
              1e-6);
  EXPECT_NEAR(c.dac_pj,
              expected_dac * d.dac_fom_fj_per_step * cfg.dac_steps() * 1e-3,
              1e-6);
}

TEST(CostSimConsistency, BoundManagementAddsReads) {
  // Iterative bound management re-runs saturated blocks; the simulator's
  // ADC counter exceeds the static model's count in that regime.
  Matrix w(64, 4);
  w.fill(0.9f);
  Matrix x(2, 64);
  x.fill(0.7f);
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.adc_bits = 7;
  cfg.adc_bound = 12.0f;
  cfg.bound_management = true;
  cfg.bm_max_iters = 4;
  cim::AnalogMatmul unit(w, {}, cfg, 3);
  unit.forward(x, cim::stream_keys(0, x.rows()));
  EXPECT_GT(unit.stats().bm_retries, 0);
  EXPECT_GT(unit.adc_reads(), 2 * 4);  // more than one pass per token
}

TEST(CostSimConsistency, EventDrivenDegeneratesToAnalytic) {
  // A single unpipelined tile has no resource contention, so the
  // event-driven simulator must land EXACTLY on the analytic model's
  // tokens x tile_read_latency — the lock-step contract between
  // timing::HwModel and cost::analog_linear_cost.
  timing::TimingConfig cfg;
  cfg.enabled = true;
  cfg.pipeline_depth = 1;
  const timing::HwModel hw(cfg);

  const std::int64_t tokens = 7, k = 24, n = 16;
  timing::TimingOp op;
  op.kind = timing::OpKind::kAnalogMvm;
  op.layer = "probe";
  op.rows = tokens;
  op.k = k;
  op.n = n;
  op.row_blocks = 1;
  op.col_blocks = 1;

  const cim::TileConfig tile = cim::TileConfig::paper_table2();
  const auto analytic =
      cost::analog_linear_cost(k, n, tokens, tile, cfg.costs);
  EXPECT_EQ(hw.analog_op_ps(op),
            std::llround(analytic.latency_ns * 1000.0));
  // And the stage split re-sums to the whole tile read exactly.
  EXPECT_EQ(hw.dac_ps() + hw.xbar_ps() + hw.adc_ps(), hw.tile_ps());

  // Multi-tile grids only ever ADD serialization (shared ADC column
  // groups, inter-tile links) on top of the analytic floor.
  op.row_blocks = 2;
  op.col_blocks = 3;
  EXPECT_GT(hw.analog_op_ps(op), std::llround(analytic.latency_ns * 1000.0));
}

TEST(CostSimConsistency, DigitalOpMatchesAnalyticLatency) {
  timing::TimingConfig cfg;
  cfg.enabled = true;
  const timing::HwModel hw(cfg);
  const std::int64_t tokens = 5, k = 96, n = 48;

  timing::TimingOp op;
  op.kind = timing::OpKind::kDigitalGemm;
  op.layer = "fp32";
  op.rows = tokens;
  op.k = k;
  op.n = n;
  const auto fp32 = cost::digital_linear_cost(k, n, tokens, 32, cfg.costs);
  EXPECT_EQ(hw.digital_op_ps(op), std::llround(fp32.latency_ns * 1000.0));

  op.kind = timing::OpKind::kInt8Gemm;
  op.layer = "int8";
  const auto int8 = cost::digital_linear_cost(k, n, tokens, 8, cfg.costs);
  EXPECT_EQ(hw.digital_op_ps(op), std::llround(int8.latency_ns * 1000.0));
}

}  // namespace
}  // namespace nora
