// Tests for the NVM device extensions: ReRAM quantized conductances with
// multi-cell bit-slicing, and write-verify programming.
#include <gtest/gtest.h>

#include <cmath>

#include "cim/analog_matmul.hpp"
#include "noise/programming.hpp"
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

TEST(WriteVerify, ResidualShrinksWithIterations) {
  const noise::ProgrammingNoise prog(1.0f);
  util::Rng rng(1);
  auto rms = [&](int iters) {
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const float e = prog.residual_error(0.5f, iters, rng);
      sq += double(e) * e;
    }
    return std::sqrt(sq / n);
  };
  const double r1 = rms(1);
  const double r2 = rms(2);
  const double r8 = rms(8);
  EXPECT_LT(r2, 0.6 * r1);
  EXPECT_LT(r8, r2);
  // Converges to a floor (pulse granularity), not to zero.
  EXPECT_GT(r8, 0.1 * r1);
  EXPECT_NEAR(r1, prog.sigma(0.5f), 0.01);
}

TEST(WriteVerify, DisabledNoiseStaysZero) {
  const noise::ProgrammingNoise prog(0.0f);
  util::Rng rng(2);
  EXPECT_EQ(prog.residual_error(0.5f, 4, rng), 0.0f);
}

TEST(WriteVerify, ImprovesGemmAccuracy) {
  const Matrix w = random_matrix(64, 32, 3, 0.2f);
  const Matrix x = random_matrix(8, 64, 4, 1.0f);
  const Matrix ref = ops::matmul(x, w);
  const auto keys = stream_keys(0, x.rows());
  TileConfig cfg = TileConfig::ideal_except_prog_noise(4.0f);
  cfg.write_verify_iters = 1;
  const double mse1 = ops::mse(AnalogMatmul(w, {}, cfg, 5).forward(x, keys), ref);
  cfg.write_verify_iters = 8;
  const double mse8 = ops::mse(AnalogMatmul(w, {}, cfg, 5).forward(x, keys), ref);
  EXPECT_LT(mse8, 0.5 * mse1);
}

TEST(Reram, QuantizedWeightsBoundedError) {
  // Noise-free ReRAM: the only error is the conductance grid, bounded by
  // half a level of the effective (bits_per_cell * cells) precision.
  const Matrix w = random_matrix(32, 16, 6, 0.2f);
  const Matrix x = random_matrix(4, 32, 7, 1.0f);
  const Matrix ref = ops::matmul(x, w);
  const auto keys = stream_keys(0, x.rows());
  TileConfig cfg = TileConfig::ideal();
  cfg.device = DeviceKind::kReramQuantized;
  cfg.reram_bits_per_cell = 4;
  for (const int cells : {1, 2, 3}) {
    cfg.reram_cells_per_weight = cells;
    const double mse = ops::mse(AnalogMatmul(w, {}, cfg, 8).forward(x, keys), ref);
    if (cells == 1) {
      EXPECT_GT(mse, 1e-5);  // 4-bit weights visibly wrong
    } else {
      EXPECT_LT(mse, 1e-4);  // >= 8-bit slicing near-exact (paper Sec. VII)
    }
  }
}

TEST(Reram, ErrorDecreasesWithCells) {
  const Matrix w = random_matrix(48, 24, 9, 0.2f);
  const Matrix x = random_matrix(4, 48, 10, 1.0f);
  const Matrix ref = ops::matmul(x, w);
  const auto keys = stream_keys(0, x.rows());
  TileConfig cfg = TileConfig::ideal();
  cfg.device = DeviceKind::kReramQuantized;
  cfg.reram_bits_per_cell = 4;
  double prev = 1e9;
  for (const int cells : {1, 2, 3}) {
    cfg.reram_cells_per_weight = cells;
    const double mse = ops::mse(AnalogMatmul(w, {}, cfg, 11).forward(x, keys), ref);
    EXPECT_LT(mse, prev);
    prev = mse;
  }
}

TEST(Reram, ValidatesPrecisionRange) {
  const Matrix w = random_matrix(8, 8, 12);
  TileConfig cfg = TileConfig::ideal();
  cfg.device = DeviceKind::kReramQuantized;
  cfg.reram_bits_per_cell = 0;
  cfg.reram_cells_per_weight = 0;
  EXPECT_THROW(AnalogMatmul(w, {}, cfg, 13), std::invalid_argument);
  cfg.reram_bits_per_cell = 9;
  cfg.reram_cells_per_weight = 3;  // 27 bits: over the 16-bit cap
  EXPECT_THROW(AnalogMatmul(w, {}, cfg, 13), std::invalid_argument);
}

TEST(Reram, NoraRescaleStillWorksOnQuantizedDevices) {
  // The paper's Sec. VII extension claim: NORA composes with ReRAM.
  const std::int64_t k = 64;
  const Matrix w = random_matrix(k, 32, 14, 0.1f);
  Matrix x = random_matrix(8, k, 15, 1.0f);
  for (std::int64_t r = 0; r < x.rows(); ++r) x.at(r, 2) *= 30.0f;
  const Matrix ref = ops::matmul(x, w);
  const auto keys = stream_keys(0, x.rows());
  TileConfig cfg = TileConfig::ideal();
  cfg.device = DeviceKind::kReramQuantized;
  cfg.reram_bits_per_cell = 4;
  cfg.reram_cells_per_weight = 2;
  cfg.dac_bits = 7;
  cfg.adc_bits = 7;
  const double mse_naive =
      ops::mse(AnalogMatmul(w, {}, cfg, 16).forward(x, keys), ref);
  const auto ax = ops::col_abs_max(x);
  const auto wx = ops::row_abs_max(w);
  std::vector<float> s(static_cast<std::size_t>(k), 1.0f);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = std::sqrt(ax[i] / std::max(wx[i], 1e-6f));
  }
  const double mse_nora =
      ops::mse(AnalogMatmul(w, s, cfg, 16).forward(x, keys), ref);
  EXPECT_LT(mse_nora, 0.5 * mse_naive);
}

}  // namespace
}  // namespace nora::cim
