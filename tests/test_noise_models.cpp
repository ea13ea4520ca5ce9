// Tests for the individual non-ideality models of paper Table I.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "noise/drift.hpp"
#include "noise/ir_drop.hpp"
#include "noise/programming.hpp"
#include "noise/read_noise.hpp"
#include "noise/sshape.hpp"

namespace nora::noise {
namespace {

TEST(SShape, DisabledIsIdentity) {
  const SShapeNonlinearity s(0.0f);
  EXPECT_EQ(s.apply(0.73f), 0.73f);
}

TEST(SShape, FixesEndpointsAndOddSymmetry) {
  const SShapeNonlinearity s(2.0f);
  EXPECT_NEAR(s.apply(1.0f), 1.0f, 1e-6);
  EXPECT_NEAR(s.apply(-1.0f), -1.0f, 1e-6);
  EXPECT_NEAR(s.apply(0.0f), 0.0f, 1e-7);
  for (float x = 0.1f; x < 1.0f; x += 0.2f) {
    EXPECT_NEAR(s.apply(-x), -s.apply(x), 1e-6);
  }
}

TEST(SShape, CompressiveAboveMidrange) {
  // tanh-shaped: expands small |x|, compresses toward the rails, and the
  // deviation grows with severity k.
  const SShapeNonlinearity weak(0.5f), strong(4.0f);
  EXPECT_GT(weak.apply(0.2f), 0.2f);
  EXPECT_GT(strong.apply(0.2f), weak.apply(0.2f));
  // Local slope near the rails falls below 1 (saturating transfer curve).
  EXPECT_LT(strong.apply(0.95f) - strong.apply(0.85f), 0.1f * 0.5f);
  EXPECT_THROW(SShapeNonlinearity(-1.0f), std::invalid_argument);
}

TEST(ProgrammingNoise, SigmaPolynomialShape) {
  const ProgrammingNoise p(1.0f);
  // Conductance-dependent: sigma grows with |w| over the usable range.
  EXPECT_GT(p.sigma(0.0f), 0.0f);
  EXPECT_GT(p.sigma(0.5f), p.sigma(0.0f));
  EXPECT_GT(p.sigma(1.0f), p.sigma(0.0f));
  EXPECT_EQ(p.sigma(0.3f), p.sigma(-0.3f));  // differential pair symmetry
  EXPECT_EQ(ProgrammingNoise(0.0f).sigma(0.5f), 0.0f);
}

TEST(ProgrammingNoise, AppliedErrorMatchesSigma) {
  const ProgrammingNoise p(1.0f);
  Matrix w(200, 200);
  w.fill(0.5f);
  Matrix noisy = w;
  util::Rng rng(7);
  p.apply(noisy, rng);
  double sq = 0.0;
  for (std::int64_t i = 0; i < w.size(); ++i) {
    const double d = double(noisy.data()[i]) - w.data()[i];
    sq += d * d;
  }
  EXPECT_NEAR(std::sqrt(sq / w.size()), p.sigma(0.5f), 0.002);
}

TEST(ReadNoise, AggregatedFormMatchesExactFormStatistically) {
  // y = (W + eps) x has output noise N(0, sigma * ||x||). Verify the
  // fast aggregated path reproduces the exact per-element variance.
  const float sigma = 0.05f;
  const ShortTermReadNoise rn(sigma);
  util::Rng rng(9);
  Matrix w(64, 1);
  w.fill_gaussian(rng, 0.3f);
  std::vector<float> x(64);
  for (auto& v : x) v = static_cast<float>(rng.gaussian());
  double x_l2sq = 0.0;
  for (float v : x) x_l2sq += double(v) * v;
  const float x_l2 = static_cast<float>(std::sqrt(x_l2sq));

  const int trials = 4000;
  double var_exact = 0.0, var_fast = 0.0;
  for (int t = 0; t < trials; ++t) {
    const Matrix wn = rn.perturbed_weights(w, rng);
    double y = 0.0, y0 = 0.0;
    for (int k = 0; k < 64; ++k) {
      y += double(wn.at(k, 0)) * x[static_cast<std::size_t>(k)];
      y0 += double(w.at(k, 0)) * x[static_cast<std::size_t>(k)];
    }
    var_exact += (y - y0) * (y - y0);
    std::vector<float> out{0.0f};
    rn.apply_to_outputs(out, x_l2, rng);
    var_fast += double(out[0]) * out[0];
  }
  var_exact /= trials;
  var_fast /= trials;
  const double expected = double(sigma) * sigma * x_l2sq;
  EXPECT_NEAR(var_exact / expected, 1.0, 0.1);
  EXPECT_NEAR(var_fast / expected, 1.0, 0.1);
}

TEST(ReadNoise, DisabledIsIdentity) {
  const ShortTermReadNoise rn(0.0f);
  util::Rng rng(1);
  std::vector<float> y{1.0f, 2.0f};
  rn.apply_to_outputs(y, 10.0f, rng);
  EXPECT_EQ(y[0], 1.0f);
  EXPECT_EQ(y[1], 2.0f);
}

TEST(IrDrop, DisabledGivesExactSum) {
  const IrDropModel ir(0.0f, 128);
  const std::vector<float> c{0.5f, -0.25f, 1.0f};
  EXPECT_FLOAT_EQ(ir.accumulate_column(c), 1.25f);
}

TEST(IrDrop, ReducesMagnitudeOfUnidirectionalCurrent) {
  const IrDropModel ir(1.0f, 512);
  std::vector<float> c(512, 0.5f);
  const float y = ir.accumulate_column(c);
  EXPECT_LT(y, 256.0f);
  EXPECT_GT(y, 0.9f * 256.0f);  // first-order effect stays small
}

TEST(IrDrop, EffectGrowsWithScaleAndRows) {
  std::vector<float> c(256, 0.5f);
  const float ideal = 128.0f;
  const float weak = IrDropModel(0.5f, 256).accumulate_column(c);
  const float strong = IrDropModel(2.0f, 256).accumulate_column(c);
  EXPECT_LT(strong, weak);
  EXPECT_LT(weak, ideal);
  // Longer lines (more rows) at the same scale drop more, relatively.
  std::vector<float> c2(512, 0.5f);
  const float long_line = IrDropModel(1.0f, 512).accumulate_column(c2) / 256.0f;
  const float short_line = IrDropModel(1.0f, 256).accumulate_column(c) / 128.0f;
  EXPECT_LT(long_line, short_line);
  EXPECT_THROW(IrDropModel(-1.0f, 128), std::invalid_argument);
  EXPECT_THROW(IrDropModel(1.0f, 0), std::invalid_argument);
}

TEST(Drift, DecayLawAndCompensation) {
  DriftConfig cfg;
  cfg.nu_mean = 0.05f;
  cfg.t0 = 20.0f;
  const PcmDriftModel drift(cfg);
  EXPECT_FLOAT_EQ(drift.decay(0.05f, 10.0f), 1.0f);  // before t0: no drift
  const float one_hour = drift.decay(0.05f, 3600.0f);
  EXPECT_LT(one_hour, 1.0f);
  EXPECT_NEAR(one_hour, std::pow(3600.0f / 20.0f, -0.05f), 1e-5);
  EXPECT_FLOAT_EQ(drift.compensation(3600.0f), one_hour);
  DriftConfig no_comp = cfg;
  no_comp.compensate = false;
  EXPECT_FLOAT_EQ(PcmDriftModel(no_comp).compensation(3600.0f), 1.0f);
}

TEST(Drift, CompensatedMeanIsStable) {
  DriftConfig cfg;
  cfg.nu_sigma = 0.02f;
  const PcmDriftModel drift(cfg);
  util::Rng rng(11);
  Matrix w(100, 100);
  w.fill(0.8f);
  const Matrix nu = drift.sample_exponents(100, 100, rng);
  Matrix drifted = w;
  drift.apply(drifted, nu, 3600.0f);
  double mean = 0.0;
  for (std::int64_t i = 0; i < drifted.size(); ++i) mean += drifted.data()[i];
  mean /= drifted.size();
  // Global compensation keeps the mean near the programmed value while
  // device-to-device spread remains (the residual error NORA cannot fix).
  EXPECT_NEAR(mean, 0.8, 0.02);
  double var = 0.0;
  for (std::int64_t i = 0; i < drifted.size(); ++i) {
    var += (drifted.data()[i] - mean) * (drifted.data()[i] - mean);
  }
  EXPECT_GT(var / drifted.size(), 1e-5);
  EXPECT_THROW(drift.apply(drifted, Matrix(2, 2), 100.0f), std::invalid_argument);
}

TEST(Drift, ReadNoiseGrowsWithTime) {
  DriftConfig cfg;
  cfg.sigma_1f = 0.01f;
  const PcmDriftModel drift(cfg);
  EXPECT_GT(drift.read_noise_sigma(3600.0f), drift.read_noise_sigma(60.0f));
  DriftConfig off;
  off.sigma_1f = 0.0f;
  EXPECT_EQ(PcmDriftModel(off).read_noise_sigma(3600.0f), 0.0f);
}

// Every noise-model constructor must reject NaN/Inf parameters: the
// existing range checks (`x < 0.0f` and friends) are all false for NaN,
// so a non-finite config would silently poison every downstream MVM.
TEST(NoiseCtors, RejectNonFiniteParameters) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();

  // Brace-init everywhere: `Type(nan)` inside the macro would parse as a
  // declaration of a variable named `nan` and throw nothing.
  EXPECT_THROW(IrDropModel(nan, 128), std::invalid_argument);
  EXPECT_THROW(IrDropModel(inf, 128), std::invalid_argument);
  EXPECT_THROW(SShapeNonlinearity{nan}, std::invalid_argument);
  EXPECT_THROW(SShapeNonlinearity{inf}, std::invalid_argument);
  EXPECT_THROW(ShortTermReadNoise{nan}, std::invalid_argument);
  EXPECT_THROW(ShortTermReadNoise{inf}, std::invalid_argument);
  EXPECT_THROW(ShortTermReadNoise{-0.1f}, std::invalid_argument);
  EXPECT_THROW(ProgrammingNoise{nan}, std::invalid_argument);
  EXPECT_THROW(ProgrammingNoise{inf}, std::invalid_argument);
  EXPECT_THROW(ProgrammingNoise{-1.0f}, std::invalid_argument);

  DriftConfig bad;
  bad.nu_mean = nan;
  EXPECT_THROW(PcmDriftModel{bad}, std::invalid_argument);
  bad = DriftConfig{};
  bad.nu_sigma = -0.01f;
  EXPECT_THROW(PcmDriftModel{bad}, std::invalid_argument);
  bad = DriftConfig{};
  bad.t0 = 0.0f;
  EXPECT_THROW(PcmDriftModel{bad}, std::invalid_argument);
  bad = DriftConfig{};
  bad.sigma_1f = inf;
  EXPECT_THROW(PcmDriftModel{bad}, std::invalid_argument);

  // Defaults and in-range values stay accepted.
  EXPECT_NO_THROW(PcmDriftModel{DriftConfig{}});
  EXPECT_NO_THROW(ShortTermReadNoise{0.0175f});
  EXPECT_NO_THROW(ProgrammingNoise{1.0f});
}

}  // namespace
}  // namespace nora::noise
