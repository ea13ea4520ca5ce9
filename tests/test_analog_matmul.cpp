// Tests for the tiled analog matrix-multiply unit, including the two
// central mathematical invariants of the paper:
//   1. zero-noise equivalence: ideal tile == digital GEMM, and
//   2. NORA output invariance: the rescale vector s cancels exactly.
#include <gtest/gtest.h>

#include <cmath>

#include "cim/analog_matmul.hpp"
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

std::vector<float> random_s(std::int64_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> s(static_cast<std::size_t>(n));
  for (auto& v : s) v = static_cast<float>(std::exp(rng.gaussian(0.0, 1.0)));
  return s;
}

TEST(AnalogMatmul, IdealEqualsDigital) {
  const Matrix w = random_matrix(100, 60, 1);
  const Matrix x = random_matrix(7, 100, 2, 1.0f);
  AnalogMatmul unit(w, {}, TileConfig::ideal(), 3);
  const Matrix y = unit.forward(x, stream_keys(0, x.rows()));
  const Matrix ref = ops::matmul(x, w);
  const double rel = std::sqrt(ops::mse(y, ref)) /
                     (ops::frobenius_norm(ref) / std::sqrt(double(ref.size())));
  EXPECT_LT(rel, 1e-4);
}

TEST(AnalogMatmul, NoraRescaleIsExactAtZeroNoise) {
  // Eq. 6-8: programming w*s and streaming x/s must cancel exactly.
  const Matrix w = random_matrix(80, 40, 4);
  const Matrix x = random_matrix(5, 80, 5, 1.0f);
  const Matrix ref = ops::matmul(x, w);
  for (const std::uint64_t s_seed : {10u, 11u, 12u}) {
    AnalogMatmul unit(w, random_s(80, s_seed), TileConfig::ideal(), 6);
    const Matrix y = unit.forward(x, stream_keys(0, x.rows()));
    const double rel = std::sqrt(ops::mse(y, ref)) /
                       (ops::frobenius_norm(ref) / std::sqrt(double(ref.size())));
    EXPECT_LT(rel, 1e-4) << "s_seed " << s_seed;
  }
}

TEST(AnalogMatmul, TilePartitioningIsInvariantAtZeroNoise) {
  // Splitting the weight across many small tiles must not change the
  // ideal result (partial sums accumulate digitally).
  const Matrix w = random_matrix(90, 70, 7);
  const Matrix x = random_matrix(4, 90, 8, 1.0f);
  TileConfig big = TileConfig::ideal();
  TileConfig small = TileConfig::ideal();
  small.tile_rows = 32;
  small.tile_cols = 16;
  const auto keys = stream_keys(0, x.rows());
  const Matrix y_big = AnalogMatmul(w, {}, big, 9).forward(x, keys);
  const Matrix y_small = AnalogMatmul(w, {}, small, 9).forward(x, keys);
  EXPECT_LT(ops::mse(y_big, y_small), 1e-8);
}

TEST(AnalogMatmul, QuantizationErrorShrinksUnderNoraForOutlierInputs) {
  const std::int64_t k = 128, n = 64;
  const Matrix w = random_matrix(k, n, 10, 0.1f);
  Matrix x = random_matrix(12, k, 11, 1.0f);
  // Amplify a few channels 25x: per-token abs-max scaling then destroys
  // the resolution of every other channel.
  for (std::int64_t c = 0; c < k; c += 16) {
    for (std::int64_t r = 0; r < x.rows(); ++r) x.at(r, c) *= 25.0f;
  }
  const Matrix ref = ops::matmul(x, w);
  TileConfig cfg = TileConfig::ideal();
  cfg.dac_bits = 7;
  cfg.adc_bits = 7;
  const auto keys = stream_keys(0, x.rows());
  const double mse_naive =
      ops::mse(AnalogMatmul(w, {}, cfg, 12).forward(x, keys), ref);
  const auto ax = ops::col_abs_max(x);
  const auto wx = ops::row_abs_max(w);
  std::vector<float> s(static_cast<std::size_t>(k), 1.0f);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = std::sqrt(ax[i] / std::max(wx[i], 1e-6f));
  }
  const double mse_nora =
      ops::mse(AnalogMatmul(w, s, cfg, 12).forward(x, keys), ref);
  EXPECT_LT(mse_nora, 0.5 * mse_naive);
}

TEST(AnalogMatmul, AlphaGammaShrinksUnderNora) {
  const std::int64_t k = 64;
  const Matrix w = random_matrix(k, 32, 13, 0.1f);
  Matrix x = random_matrix(8, k, 14, 1.0f);
  for (std::int64_t r = 0; r < x.rows(); ++r) x.at(r, 0) *= 30.0f;
  const auto ax = ops::col_abs_max(x);
  const auto wx = ops::row_abs_max(w);
  std::vector<float> s(static_cast<std::size_t>(k), 1.0f);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = std::sqrt(ax[i] / std::max(wx[i], 1e-6f));
  }
  AnalogMatmul naive(w, {}, TileConfig::ideal(), 15);
  AnalogMatmul nora(w, s, TileConfig::ideal(), 15);
  naive.forward(x, stream_keys(0, x.rows()));
  nora.forward(x, stream_keys(0, x.rows()));
  EXPECT_LT(nora.mean_alpha_gamma_gmax(), naive.mean_alpha_gamma_gmax());
}

TEST(AnalogMatmul, InputScalingPolicies) {
  const Matrix w = random_matrix(32, 16, 16);
  const Matrix x = random_matrix(6, 32, 17, 1.0f);
  // kNone with inputs beyond [-1, 1] clips at the DAC.
  TileConfig none_cfg = TileConfig::ideal();
  none_cfg.dac_bits = 7;
  none_cfg.scaling = InputScaling::kNone;
  AnalogMatmul none(w, {}, none_cfg, 18);
  none.forward(x, stream_keys(0, x.rows()));
  EXPECT_GT(none.stats().dac_clipped, 0);
  // kAbsMax never clips.
  TileConfig abs_cfg = none_cfg;
  abs_cfg.scaling = InputScaling::kAbsMax;
  AnalogMatmul absmax(w, {}, abs_cfg, 18);
  absmax.forward(x, stream_keys(0, x.rows()));
  EXPECT_EQ(absmax.stats().dac_clipped, 0);
  // kAvgAbsMax clips only the above-average rows.
  TileConfig avg_cfg = none_cfg;
  avg_cfg.scaling = InputScaling::kAvgAbsMax;
  AnalogMatmul avg(w, {}, avg_cfg, 18);
  avg.forward(x, stream_keys(0, x.rows()));
  EXPECT_GT(avg.stats().dac_clipped, 0);
  EXPECT_LT(avg.stats().dac_clipped, none.stats().dac_clipped);
}

TEST(AnalogMatmul, BoundManagementResolvesSaturation) {
  // Strongly correlated inputs/weights saturate a tight ADC; iterative
  // bound management doubles alpha until the read fits.
  Matrix w(64, 4);
  w.fill(0.9f);
  Matrix x(3, 64);
  x.fill(0.7f);
  TileConfig cfg = TileConfig::ideal();
  cfg.adc_bits = 7;
  cfg.adc_bound = 12.0f;  // |sum| = 64*0.9*0.7 normalized ~ 44 >> 12
  const Matrix ref = ops::matmul(x, w);
  AnalogMatmul no_bm(w, {}, cfg, 19);
  const Matrix y_clipped = no_bm.forward(x, stream_keys(0, x.rows()));
  EXPECT_GT(std::fabs(y_clipped.at(0, 0) - ref.at(0, 0)), 1.0f);
  TileConfig bm_cfg = cfg;
  bm_cfg.bound_management = true;
  bm_cfg.bm_max_iters = 4;
  AnalogMatmul bm(w, {}, bm_cfg, 19);
  const Matrix y_bm = bm.forward(x, stream_keys(0, x.rows()));
  EXPECT_GT(bm.stats().bm_retries, 0);
  EXPECT_NEAR(y_bm.at(0, 0), ref.at(0, 0), 0.05f * std::fabs(ref.at(0, 0)));
}

TEST(AnalogMatmul, DacStatsCountOnlyAcceptedPassUnderBoundManagement) {
  // Regression: bound-management retries used to re-count every DAC
  // sample per attempt, inflating dac_samples (and deflating the clip
  // fraction) by the retry multiplicity. A retry replays the SAME input
  // samples at a different alpha, so converter traffic must count the
  // accepted pass once; retry work is reported separately in bm_retries.
  Matrix w(64, 4);
  w.fill(0.9f);
  Matrix x(3, 64);
  x.fill(0.7f);  // |sum| ~ 44 >> adc_bound: every token saturates
  TileConfig cfg = TileConfig::ideal();
  cfg.dac_bits = 7;
  cfg.adc_bits = 7;
  cfg.adc_bound = 12.0f;
  cfg.bound_management = true;
  cfg.bm_max_iters = 4;
  AnalogMatmul unit(w, {}, cfg, 19);
  unit.forward(x, stream_keys(0, x.rows()));
  EXPECT_GT(unit.stats().bm_retries, 0);
  // 3 tokens x 64 inputs, regardless of how many bound-management
  // attempts each token needed.
  EXPECT_EQ(unit.stats().dac_samples, 3 * 64);
  // The ADC, by contrast, physically re-reads on every attempt: its
  // counter must keep counting all passes.
  EXPECT_EQ(unit.adc_reads(),
            3 * 4 + unit.stats().bm_retries * 4);
}

TEST(AnalogMatmul, DeterministicForwardGivenSeed) {
  const Matrix w = random_matrix(48, 48, 20);
  const Matrix x = random_matrix(4, 48, 21, 1.0f);
  const TileConfig cfg;  // full Table II noise
  const auto keys = stream_keys(0, x.rows());
  const Matrix y1 = AnalogMatmul(w, {}, cfg, 22).forward(x, keys);
  const Matrix y2 = AnalogMatmul(w, {}, cfg, 22).forward(x, keys);
  EXPECT_EQ(0.0, ops::mse(y1, y2));
  const Matrix y3 = AnalogMatmul(w, {}, cfg, 23).forward(x, keys);
  EXPECT_GT(ops::mse(y1, y3), 0.0);
}

TEST(AnalogMatmul, ValidatesArguments) {
  const Matrix w = random_matrix(8, 8, 24);
  EXPECT_THROW(AnalogMatmul(w, std::vector<float>(4, 1.0f), TileConfig::ideal(), 1),
               std::invalid_argument);
  std::vector<float> bad_s(8, 1.0f);
  bad_s[3] = 0.0f;
  EXPECT_THROW(AnalogMatmul(w, bad_s, TileConfig::ideal(), 1),
               std::invalid_argument);
  bad_s[3] = -2.0f;
  EXPECT_THROW(AnalogMatmul(w, bad_s, TileConfig::ideal(), 1),
               std::invalid_argument);
  AnalogMatmul unit(w, {}, TileConfig::ideal(), 1);
  EXPECT_THROW(unit.forward(Matrix(2, 4), stream_keys(0, 2)),
               std::invalid_argument);
}

TEST(AnalogMatmul, StatsAccumulateAndReset) {
  const Matrix w = random_matrix(16, 8, 25);
  const Matrix x = random_matrix(3, 16, 26, 1.0f);
  TileConfig cfg = TileConfig::ideal();
  cfg.dac_bits = 7;
  AnalogMatmul unit(w, {}, cfg, 27);
  unit.forward(x, stream_keys(0, x.rows()));
  EXPECT_EQ(unit.stats().alpha_count, 3);
  EXPECT_EQ(unit.stats().dac_samples, 3 * 16);
  EXPECT_GT(unit.mean_alpha(), 0.0);
  unit.reset_stats();
  EXPECT_EQ(unit.stats().alpha_count, 0);

  // reset_stats must also clear the per-tile ADC counters, not just the
  // array-level input stats (saturation rates would otherwise leak
  // across measurement windows).
  TileConfig adc_cfg = TileConfig::ideal();
  adc_cfg.adc_bits = 7;
  adc_cfg.adc_bound = 0.25f;  // tight full scale: guarantees saturations
  AnalogMatmul sat(w, {}, adc_cfg, 28);
  sat.forward(x, stream_keys(0, x.rows()));
  EXPECT_EQ(sat.adc_reads(), 3 * 8);
  EXPECT_GT(sat.adc_saturations(), 0);
  EXPECT_GT(sat.adc_saturation_rate(), 0.0);
  sat.reset_stats();
  EXPECT_EQ(sat.adc_reads(), 0);
  EXPECT_EQ(sat.adc_saturations(), 0);
  EXPECT_EQ(sat.adc_saturation_rate(), 0.0);
}

}  // namespace
}  // namespace nora::cim
