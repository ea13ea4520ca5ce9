// Property-based (parameterized) suites over the simulator's invariants:
// tile-partition invariance, NORA exactness for arbitrary lambda,
// resolution monotonicity, and finiteness under every scaling policy.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "cim/analog_matmul.hpp"
#include "core/nora.hpp"
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

Matrix outlier_inputs(std::int64_t t, std::int64_t k, std::uint64_t seed) {
  Matrix x = random_matrix(t, k, seed, 1.0f);
  for (std::int64_t c = 0; c < k; c += 10) {
    for (std::int64_t r = 0; r < t; ++r) x.at(r, c) *= 15.0f;
  }
  return x;
}

// ---------------------------------------------------------------- tiles
class TileShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TileShapeSweep, PartitionInvarianceAtZeroNoise) {
  const auto [rows, cols] = GetParam();
  const Matrix w = random_matrix(75, 53, 1);
  const Matrix x = random_matrix(6, 75, 2, 1.0f);
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.tile_rows = rows;
  cfg.tile_cols = cols;
  const Matrix y =
      cim::AnalogMatmul(w, {}, cfg, 3).forward(x, cim::stream_keys(0, x.rows()));
  const Matrix ref = ops::matmul(x, w);
  EXPECT_LT(ops::mse(y, ref), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TileShapeSweep,
                         ::testing::Values(std::tuple{512, 512},
                                           std::tuple{64, 64},
                                           std::tuple{32, 17},
                                           std::tuple{19, 128},
                                           std::tuple{7, 7}));

// --------------------------------------------------------------- lambda
class LambdaSweep : public ::testing::TestWithParam<float> {};

TEST_P(LambdaSweep, RescaleExactAtZeroNoise) {
  const float lambda = GetParam();
  const std::int64_t k = 60;
  const Matrix w = random_matrix(k, 30, 4, 0.2f);
  const Matrix x = outlier_inputs(5, k, 5);
  const auto ax = ops::col_abs_max(x);
  const auto wx = ops::row_abs_max(w);
  core::LayerCalibration cal;
  cal.act_abs_max = ax;
  cal.w_abs_max = wx;
  const auto s = core::smoothing_vector(cal, lambda, 1e-3f);
  const Matrix y = cim::AnalogMatmul(w, s, cim::TileConfig::ideal(), 6)
                       .forward(x, cim::stream_keys(0, x.rows()));
  const Matrix ref = ops::matmul(x, w);
  const double rel = std::sqrt(ops::mse(y, ref)) /
                     (ops::frobenius_norm(ref) / std::sqrt(double(ref.size())));
  EXPECT_LT(rel, 1e-4);
}

TEST_P(LambdaSweep, PositiveLambdaTightensInputRange) {
  const float lambda = GetParam();
  if (lambda == 0.0f) GTEST_SKIP() << "lambda=0 ignores activations";
  const std::int64_t k = 60;
  const Matrix w = random_matrix(k, 30, 7, 0.2f);
  const Matrix x = outlier_inputs(5, k, 8);
  core::LayerCalibration cal;
  cal.act_abs_max = ops::col_abs_max(x);
  cal.w_abs_max = ops::row_abs_max(w);
  const auto s = core::smoothing_vector(cal, lambda, 1e-3f);
  // Ratio of largest to median |x_k|/s_k shrinks vs raw ranges.
  std::vector<float> scaled(cal.act_abs_max.size());
  for (std::size_t i = 0; i < scaled.size(); ++i) {
    scaled[i] = cal.act_abs_max[i] / s[i];
  }
  auto spread = [](std::vector<float> v) {
    std::sort(v.begin(), v.end());
    return v.back() / std::max(v[v.size() / 2], 1e-9f);
  };
  EXPECT_LT(spread(scaled), spread({cal.act_abs_max.begin(),
                                    cal.act_abs_max.end()}));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, LambdaSweep,
                         ::testing::Values(0.0f, 0.25f, 0.5f, 0.75f, 1.0f));

// ----------------------------------------------------------- resolution
class BitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitsSweep, GemmErrorShrinksWithResolution) {
  const int bits = GetParam();
  const Matrix w = random_matrix(64, 64, 9, 0.2f);
  const Matrix x = random_matrix(8, 64, 10, 1.0f);
  const Matrix ref = ops::matmul(x, w);
  cim::TileConfig coarse = cim::TileConfig::ideal();
  coarse.dac_bits = bits;
  coarse.adc_bits = bits;
  cim::TileConfig fine = coarse;
  fine.dac_bits = bits + 2;
  fine.adc_bits = bits + 2;
  const auto keys = cim::stream_keys(0, x.rows());
  const double mse_coarse =
      ops::mse(cim::AnalogMatmul(w, {}, coarse, 11).forward(x, keys), ref);
  const double mse_fine =
      ops::mse(cim::AnalogMatmul(w, {}, fine, 11).forward(x, keys), ref);
  EXPECT_LT(mse_fine, mse_coarse);
}

INSTANTIATE_TEST_SUITE_P(Bits, BitsSweep, ::testing::Values(3, 5, 7));

// ------------------------------------------------------ policy x noise
class PolicyNoiseSweep
    : public ::testing::TestWithParam<std::tuple<cim::InputScaling, bool>> {};

TEST_P(PolicyNoiseSweep, OutputsAlwaysFinite) {
  const auto [scaling, bm] = GetParam();
  const Matrix w = random_matrix(48, 24, 12);
  const Matrix x = outlier_inputs(6, 48, 13);
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.scaling = scaling;
  cfg.bound_management = bm;
  const Matrix y =
      cim::AnalogMatmul(w, {}, cfg, 14).forward(x, cim::stream_keys(0, x.rows()));
  for (std::int64_t i = 0; i < y.size(); ++i) {
    ASSERT_TRUE(std::isfinite(y.data()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyNoiseSweep,
    ::testing::Combine(::testing::Values(cim::InputScaling::kNone,
                                         cim::InputScaling::kAbsMax,
                                         cim::InputScaling::kAvgAbsMax),
                       ::testing::Bool()));

// ------------------------------------------------------------ mse knob
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, NoiseIsUnbiasedAcrossSeeds) {
  // The mean output over noisy runs converges to the ideal product:
  // noise models must not introduce systematic bias (other than IR-drop
  // and S-shape, which are deterministic distortions and disabled here).
  const std::uint64_t seed = GetParam();
  const Matrix w = random_matrix(32, 4, seed, 0.3f);
  const Matrix x = random_matrix(2, 32, seed + 1, 1.0f);
  const Matrix ref = ops::matmul(x, w);
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.out_noise = 0.05f;
  cfg.w_noise = 0.02f;
  cfg.in_noise = 0.02f;
  Matrix mean(x.rows(), w.cols());
  const int reps = 600;
  cim::AnalogMatmul unit(w, {}, cfg, seed + 2);
  for (int r = 0; r < reps; ++r) {
    ops::add_inplace(mean, unit.forward(x, cim::stream_keys(r, x.rows())));
  }
  ops::scale_inplace(mean, 1.0f / reps);
  for (std::int64_t i = 0; i < mean.size(); ++i) {
    EXPECT_NEAR(mean.data()[i], ref.data()[i], 0.08)
        << "seed " << seed << " index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(100u, 200u, 300u));

}  // namespace
}  // namespace nora
