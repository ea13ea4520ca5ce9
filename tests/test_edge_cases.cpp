// Edge-case and robustness tests across the stack: degenerate shapes,
// zero and extreme inputs, and guard behavior.
#include <gtest/gtest.h>

#include <cmath>

#include "cim/analog_matmul.hpp"
#include "core/nora.hpp"
#include "nn/transformer.hpp"
#include "tensor/ops.hpp"

namespace nora {
namespace {

TEST(EdgeCases, ZeroInputThroughNoisyTileStaysSmall) {
  util::Rng rng(1);
  Matrix w(32, 16);
  w.fill_gaussian(rng, 0.5f);
  cim::AnalogMatmul unit(w, {}, cim::TileConfig::paper_table2(), 2);
  Matrix x(4, 32);  // all zeros
  const Matrix y = unit.forward(x, cim::stream_keys(0, x.rows()));
  // alpha guards to 1; only additive noise remains, bounded by
  // alpha * gamma * (out_noise + ADC step), far below signal scale.
  for (std::int64_t i = 0; i < y.size(); ++i) {
    ASSERT_TRUE(std::isfinite(y.data()[i]));
    EXPECT_LT(std::fabs(y.data()[i]), 1.0f);
  }
}

TEST(EdgeCases, SingleRowAndSingleColumnWeights) {
  util::Rng rng(3);
  Matrix w_row(1, 8);
  w_row.fill_gaussian(rng, 0.5f);
  Matrix w_col(8, 1);
  w_col.fill_gaussian(rng, 0.5f);
  Matrix x1(2, 1);
  x1.fill(0.7f);
  Matrix x8(2, 8);
  x8.fill_gaussian(rng, 1.0f);
  const Matrix y1 = cim::AnalogMatmul(w_row, {}, cim::TileConfig::ideal(), 4)
                        .forward(x1, cim::stream_keys(0, x1.rows()));
  EXPECT_LT(ops::mse(y1, ops::matmul(x1, w_row)), 1e-8);
  const Matrix y2 = cim::AnalogMatmul(w_col, {}, cim::TileConfig::ideal(), 5)
                        .forward(x8, cim::stream_keys(0, x8.rows()));
  EXPECT_LT(ops::mse(y2, ops::matmul(x8, w_col)), 1e-8);
}

TEST(EdgeCases, HugeInputsStayFiniteAtTable2) {
  util::Rng rng(6);
  Matrix w(16, 16);
  w.fill_gaussian(rng, 0.5f);
  cim::AnalogMatmul unit(w, {}, cim::TileConfig::paper_table2(), 7);
  Matrix x(2, 16);
  x.fill(1e6f);
  const Matrix y = unit.forward(x, cim::stream_keys(0, x.rows()));
  for (std::int64_t i = 0; i < y.size(); ++i) {
    ASSERT_TRUE(std::isfinite(y.data()[i]));
  }
}

TEST(EdgeCases, SmoothingVectorOnConstantChannels) {
  core::LayerCalibration cal;
  cal.layer = "l";
  cal.act_abs_max = {2.0f, 2.0f};
  cal.w_abs_max = {0.5f, 0.5f};
  const auto s = core::smoothing_vector(cal, 0.5f, 1e-3f);
  EXPECT_FLOAT_EQ(s[0], s[1]);  // uniform channels -> uniform rescale
  // Uniform s changes nothing about relative ranges -> NORA is a no-op
  // transform on already-balanced layers, as expected.
}

TEST(EdgeCases, OneTokenTransformerForward) {
  nn::TransformerConfig cfg;
  cfg.vocab_size = 10;
  cfg.d_model = 8;
  cfg.n_layers = 1;
  cfg.n_heads = 2;
  cfg.d_ff = 16;
  cfg.max_seq = 4;
  nn::TransformerLM model(cfg);
  const Matrix logits = model.forward(std::vector<int>{3});
  EXPECT_EQ(logits.rows(), 1);
  EXPECT_EQ(logits.cols(), 10);
  for (std::int64_t i = 0; i < logits.size(); ++i) {
    ASSERT_TRUE(std::isfinite(logits.data()[i]));
  }
}

TEST(EdgeCases, EmptyMatrixOperations) {
  Matrix empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(ops::abs_max(empty), 0.0f);
  EXPECT_EQ(ops::frobenius_norm(empty), 0.0f);
  Matrix zero_rows(0, 5);
  EXPECT_EQ(zero_rows.size(), 0);
  EXPECT_EQ(ops::col_abs_max(zero_rows).size(), 5u);
}

TEST(EdgeCases, TileLargerThanMatrix) {
  // A 512x512 tile holding an 8x4 matrix must behave identically to a
  // right-sized tile.
  util::Rng rng(8);
  Matrix w(8, 4);
  w.fill_gaussian(rng, 0.5f);
  Matrix x(3, 8);
  x.fill_gaussian(rng, 1.0f);
  cim::TileConfig big = cim::TileConfig::ideal();  // 512x512 tiles
  cim::TileConfig snug = cim::TileConfig::ideal();
  snug.tile_rows = 8;
  snug.tile_cols = 4;
  const auto keys = cim::stream_keys(0, x.rows());
  const Matrix y_big = cim::AnalogMatmul(w, {}, big, 9).forward(x, keys);
  const Matrix y_snug = cim::AnalogMatmul(w, {}, snug, 9).forward(x, keys);
  EXPECT_LT(ops::mse(y_big, y_snug), 1e-10);
}

}  // namespace
}  // namespace nora
