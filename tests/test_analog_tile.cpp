// Tests for the single-tile analog MVM (Eq. 3-5) and its invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "cim/analog_tile.hpp"
#include "noise/drift.hpp"
#include "noise/ir_drop.hpp"
#include "tensor/ops.hpp"

namespace nora::cim {
namespace {

Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed,
                     float std_dev = 0.5f) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.fill_gaussian(rng, std_dev);
  return m;
}

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

float l2(const std::vector<float>& v) {
  double s = 0.0;
  for (float x : v) s += double(x) * x;
  return static_cast<float>(std::sqrt(s));
}

TEST(AnalogTile, GammaIsPerColumnAbsMax) {
  Matrix w(2, 3, {1.0f, -4.0f, 0.0f, -2.0f, 3.0f, 0.0f});
  AnalogTile tile(w, TileConfig::ideal(), util::Rng(1));
  EXPECT_FLOAT_EQ(tile.gamma()[0], 2.0f);
  EXPECT_FLOAT_EQ(tile.gamma()[1], 4.0f);
  EXPECT_FLOAT_EQ(tile.gamma()[2], 1.0f);  // zero column guards to 1
}

TEST(AnalogTile, IdealTileMatchesDigitalGemv) {
  const Matrix w = random_matrix(48, 32, 2);
  AnalogTile tile(w, TileConfig::ideal(), util::Rng(3));
  // Normalized input (alpha = max|x|) exactly as the array would stream it.
  auto x = random_vec(48, 4);
  float alpha = 0.0f;
  for (float v : x) alpha = std::max(alpha, std::fabs(v));
  std::vector<float> x_hat = x;
  for (auto& v : x_hat) v /= alpha;
  std::vector<float> y(32, 0.0f);
  util::Rng rng(5);
  const bool sat = tile.mvm(x_hat, l2(x_hat), alpha, y, rng);
  EXPECT_FALSE(sat);
  for (std::int64_t j = 0; j < 32; ++j) {
    double ref = 0.0;
    for (std::int64_t k = 0; k < 48; ++k) ref += double(w.at(k, j)) * x[static_cast<std::size_t>(k)];
    EXPECT_NEAR(y[static_cast<std::size_t>(j)], ref, 1e-3 + 1e-4 * std::fabs(ref));
  }
}

TEST(AnalogTile, AdcSaturationIsCountedAndClamped) {
  // One column of all-max weights and an all-ones input saturates a
  // low-bound ADC.
  Matrix w(32, 1);
  w.fill(1.0f);
  TileConfig cfg = TileConfig::ideal();
  cfg.adc_bits = 7;
  cfg.adc_bound = 4.0f;  // sum of 32 normalized products saturates
  AnalogTile tile(w, cfg, util::Rng(6));
  std::vector<float> x_hat(32, 1.0f);
  std::vector<float> y(1, 0.0f);
  util::Rng rng(7);
  const bool sat = tile.mvm(x_hat, l2({x_hat.begin(), x_hat.end()}), 1.0f, y, rng);
  EXPECT_TRUE(sat);
  EXPECT_EQ(tile.adc_saturations(), 1);
  EXPECT_EQ(tile.adc_reads(), 1);
  // Clamped to the ADC's top code: (bound - step) * gamma(=1) * alpha.
  EXPECT_FLOAT_EQ(y[0], 4.0f * 63.0f / 64.0f);
}

TEST(AnalogTile, OutputNoiseScalesWithGammaAndAlpha) {
  // The real-unit impact of out_noise is alpha*gamma*sigma: doubling the
  // weight scale doubles gamma and with it the output error.
  const std::int64_t k = 16, reps = 3000;
  Matrix w1 = random_matrix(k, 1, 8);
  Matrix w2 = w1;
  ops::scale_inplace(w2, 2.0f);
  TileConfig cfg = TileConfig::ideal();
  cfg.out_noise = 0.04f;
  auto measure = [&](const Matrix& w) {
    AnalogTile tile(w, cfg, util::Rng(9));
    std::vector<float> x_hat(static_cast<std::size_t>(k), 0.5f);
    const float xl2 = l2(x_hat);
    util::Rng rng(10);
    double ref = 0.0;
    for (std::int64_t r = 0; r < k; ++r) ref += double(w.at(r, 0)) * 0.5;
    double sq = 0.0;
    for (int i = 0; i < reps; ++i) {
      std::vector<float> y(1, 0.0f);
      tile.mvm(x_hat, xl2, 1.0f, y, rng);
      sq += (y[0] - ref) * (y[0] - ref);
    }
    return std::sqrt(sq / reps);
  };
  const double e1 = measure(w1);
  const double e2 = measure(w2);
  EXPECT_NEAR(e2 / e1, 2.0, 0.15);
}

TEST(AnalogTile, DeterministicGivenSeed) {
  const Matrix w = random_matrix(24, 24, 11);
  TileConfig cfg;  // paper Table II, all noise on
  auto run = [&] {
    AnalogTile tile(w, cfg, util::Rng(12));
    std::vector<float> x_hat(24, 0.3f);
    std::vector<float> y(24, 0.0f);
    util::Rng rng(13);
    tile.mvm(x_hat, l2({x_hat.begin(), x_hat.end()}), 1.0f, y, rng);
    return y;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(AnalogTile, ProgrammingNoiseAppliedOncePerProgram) {
  // With only programming noise, repeated reads give identical results
  // (the error is frozen at program time), but two differently seeded
  // tiles differ.
  const Matrix w = random_matrix(16, 16, 14);
  const TileConfig cfg = TileConfig::ideal_except_prog_noise(1.0f);
  AnalogTile tile(w, cfg, util::Rng(15));
  std::vector<float> x_hat(16, 0.4f);
  const float xl2 = l2({x_hat.begin(), x_hat.end()});
  util::Rng rng(16);
  std::vector<float> y1(16, 0.0f), y2(16, 0.0f), y3(16, 0.0f);
  tile.mvm(x_hat, xl2, 1.0f, y1, rng);
  tile.mvm(x_hat, xl2, 1.0f, y2, rng);
  EXPECT_EQ(y1, y2);
  AnalogTile other(w, cfg, util::Rng(17));
  other.mvm(x_hat, xl2, 1.0f, y3, rng);
  EXPECT_NE(y1, y3);
}

TEST(AnalogTile, DriftReducesThenCompensationRestoresScale) {
  Matrix w(32, 1);
  w.fill(0.8f);
  TileConfig cfg = TileConfig::ideal();
  cfg.drift_enabled = true;
  cfg.drift.compensate = false;
  cfg.drift.nu_sigma = 0.0f;  // deterministic drift
  AnalogTile tile(w, cfg, util::Rng(18));
  std::vector<float> x_hat(32, 1.0f);
  const float xl2 = l2({x_hat.begin(), x_hat.end()});
  util::Rng rng(19);
  std::vector<float> y0(1, 0.0f), y1(1, 0.0f), yc(1, 0.0f);
  tile.mvm(x_hat, xl2, 1.0f, y0, rng);
  tile.set_read_time(3600.0f);
  tile.mvm(x_hat, xl2, 1.0f, y1, rng);
  EXPECT_LT(y1[0], y0[0] * 0.9f);  // uncompensated drift shrinks outputs
  // With compensation and zero spread, drift cancels exactly.
  cfg.drift.compensate = true;
  AnalogTile tile2(w, cfg, util::Rng(18));
  tile2.set_read_time(3600.0f);
  tile2.mvm(x_hat, xl2, 1.0f, yc, rng);
  EXPECT_NEAR(yc[0], y0[0], 1e-3);
}

// mvm reads the effective conductances row-major, while set_read_time
// derives the read-time state in the programmed (transposed) layout and
// upset_device / wear_stuck write single cells. Pin every writer against
// an independent reference: column-by-column
// IrDropModel::accumulate_column_fused over conductances rebuilt here
// from the weights, the applied upsets and wear, and the drift model fed
// the tile's own "drift" stream. Noise and the ADC are off, so each
// output is exact; 37 columns cover two full 16-column kernel passes and
// a masked tail.
TEST(AnalogTile, RowMajorReadLayoutTracksUpsetsWearAndDrift) {
  const std::int64_t rows = 40, cols = 37;
  const Matrix w = random_matrix(rows, cols, 21);
  TileConfig cfg = TileConfig::ideal_except_ir_drop(1.0f);
  cfg.abft_checksum = true;
  cfg.drift_enabled = true;
  const util::Rng tile_rng(22);
  AnalogTile tile(w, cfg, tile_rng);
  // As-programmed conductances, one contiguous column per row.
  Matrix programmed(cols, rows);
  for (std::int64_t k = 0; k < rows; ++k) {
    for (std::int64_t j = 0; j < cols; ++j) {
      programmed.at(j, k) = w.at(k, j) / tile.gamma()[static_cast<std::size_t>(j)];
    }
  }
  Matrix ref = programmed;
  const noise::IrDropModel ir(cfg.ir_drop, static_cast<int>(rows));
  const std::vector<float> x_hat = random_vec(rows, 23);
  const float alpha = 0.75f;
  const auto expect_matches = [&](const char* stage) {
    std::vector<float> y(static_cast<std::size_t>(cols), 0.0f);
    util::Rng rng(24);
    tile.mvm(x_hat, l2(x_hat), alpha, y, rng);
    for (std::int64_t j = 0; j < cols; ++j) {
      const float acc = ir.accumulate_column_fused(
          ref.row(j).data(), x_hat.data(), static_cast<std::size_t>(rows));
      const float gamma = tile.gamma()[static_cast<std::size_t>(j)];
      EXPECT_EQ(y[static_cast<std::size_t>(j)], std::fma(alpha * gamma, acc, 0.0f))
          << stage << ", column " << j;
    }
  };

  expect_matches("as programmed");
  expect_matches("as programmed, second read");
  EXPECT_EQ(tile.abft_stats().checks, 2);
  EXPECT_EQ(tile.abft_stats().residual_max, 0.0);  // untouched: exactly 0

  // Upsets in a full kernel pass and in the masked tail.
  tile.upset_device(5, 3, 0.9f);
  ref.at(5, 3) = 0.9f;
  tile.upset_device(35, 39, -0.6f);
  ref.at(35, 39) = -0.6f;
  expect_matches("after upset_device");

  tile.wear_stuck(20, 11, 0.0f);
  ref.at(20, 11) = 0.0f;
  tile.wear_stuck(36, 0, 1.0f);
  ref.at(36, 0) = 1.0f;
  expect_matches("after wear_stuck");

  // A drifted re-read re-derives every device, clearing the upsets; wear
  // drifts with the programmed state and is then pinned again.
  const float t = 3600.0f;
  tile.set_read_time(t);
  ref = programmed;
  ref.at(20, 11) = 0.0f;
  ref.at(36, 0) = 1.0f;
  util::Rng drift_rng = tile_rng.split("drift");
  const noise::PcmDriftModel drift(cfg.drift);
  drift.apply(ref, drift.sample_exponents(cols, rows, drift_rng), t);
  ref.at(20, 11) = 0.0f;
  ref.at(36, 0) = 1.0f;
  expect_matches("after set_read_time with drift");
}

TEST(AnalogTile, RejectsBadShapes) {
  EXPECT_THROW(AnalogTile(Matrix(), TileConfig::ideal(), util::Rng(1)),
               std::invalid_argument);
  const Matrix w = random_matrix(8, 8, 20);
  AnalogTile tile(w, TileConfig::ideal(), util::Rng(2));
  std::vector<float> x(4, 0.0f), y(8, 0.0f);
  util::Rng rng(3);
  EXPECT_THROW(tile.mvm(x, 0.0f, 1.0f, y, rng), std::invalid_argument);
}

}  // namespace
}  // namespace nora::cim
