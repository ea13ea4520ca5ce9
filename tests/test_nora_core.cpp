// Tests for the NORA core: calibration, the smoothing vector (Sec. IV),
// deployment, and the distribution analytics behind Fig. 4 / Fig. 6.
#include <gtest/gtest.h>

#include <cmath>

#include "core/nora.hpp"
#include "tensor/ops.hpp"

namespace nora::core {
namespace {

nn::TransformerConfig tiny_arch(const eval::SynthLambadaConfig& task,
                                float outlier_gain = 12.0f) {
  nn::TransformerConfig cfg;
  cfg.vocab_size = task.vocab_size();
  cfg.d_model = 24;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 48;
  cfg.max_seq = task.seq_len;
  cfg.norm_gain = std::vector<float>(24, 1.0f);
  cfg.norm_gain[3] = outlier_gain;
  cfg.norm_gain[17] = outlier_gain * 1.5f;
  return cfg;
}

TEST(SmoothingVector, FormulaAndClamping) {
  LayerCalibration cal;
  cal.layer = "l";
  cal.act_abs_max = {16.0f, 4.0f, 0.0f, 1e-8f};
  cal.w_abs_max = {0.25f, 1.0f, 1.0f, 1e-9f};
  const auto s = smoothing_vector(cal, 0.5f, 1e-3f);
  EXPECT_NEAR(s[0], std::sqrt(16.0f) / std::sqrt(0.25f), 1e-5);  // 8
  EXPECT_NEAR(s[1], 2.0f, 1e-5);
  EXPECT_EQ(s[2], 1.0f);  // dead activation channel keeps s = 1
  EXPECT_GE(s[3], 1e-3f);
  // lambda extremes.
  const auto s0 = smoothing_vector(cal, 0.0f, 1e-3f);
  EXPECT_NEAR(s0[0], 1.0f / 0.25f, 1e-5);  // weights only
  const auto s1 = smoothing_vector(cal, 1.0f, 1e-3f);
  EXPECT_NEAR(s1[0], 16.0f, 1e-4);  // activations only
  LayerCalibration bad = cal;
  bad.w_abs_max.pop_back();
  EXPECT_THROW(smoothing_vector(bad, 0.5f, 1e-3f), std::invalid_argument);
}

TEST(SmoothingVector, DegenerateChannelsAndClampFloor) {
  LayerCalibration cal;
  cal.layer = "edge";
  //                 all-zero act | all-zero w row | both dead | tiny act
  cal.act_abs_max = {0.0f,          8.0f,            0.0f,       1e-10f};
  cal.w_abs_max   = {2.0f,          0.0f,            0.0f,       4.0f};
  const auto s = smoothing_vector(cal, 0.5f, 1e-3f);
  // A channel that never activates must not be migrated: s = 1 keeps the
  // weight column untouched.
  EXPECT_EQ(s[0], 1.0f);
  // An all-zero weight row would drive s -> inf (divide by 0^(1-lambda));
  // it also stays at the identity instead.
  EXPECT_EQ(s[1], 1.0f);
  EXPECT_EQ(s[2], 1.0f);
  // A live but minuscule activation hits the s_min floor exactly:
  // sqrt(1e-10)/sqrt(4) = 5e-6 < 1e-3.
  EXPECT_EQ(s[3], 1e-3f);
  // The floor follows the configured s_min.
  const auto s_loose = smoothing_vector(cal, 0.5f, 1e-7f);
  EXPECT_NEAR(s_loose[3], 5e-6f, 1e-9f);
  // Degenerate channels are no-ops end to end: folding s into weights
  // and unfolding at the input changes nothing for s = 1 channels.
  for (float v : s) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0f);
  }
}

TEST(Calibrate, CapturesPerChannelRanges) {
  eval::SynthLambadaConfig task_cfg;
  const eval::SynthLambada task(task_cfg);
  nn::TransformerLM model(tiny_arch(task_cfg));
  const auto cals = calibrate(model, task, 4);
  EXPECT_EQ(cals.size(), model.linear_layers().size());
  for (const auto& cal : cals) {
    EXPECT_FALSE(cal.act_abs_max.empty());
    EXPECT_EQ(cal.act_abs_max.size(), cal.w_abs_max.size());
    float max_act = 0.0f;
    for (float a : cal.act_abs_max) max_act = std::max(max_act, a);
    EXPECT_GT(max_act, 0.0f) << cal.layer;
  }
  // Outlier channels show up in the QKV input ranges (post-norm gain).
  const auto& qkv = cals[0];
  ASSERT_EQ(qkv.layer, "blk0.attn.qkv");
  float typical = 0.0f;
  for (std::size_t c = 0; c < qkv.act_abs_max.size(); ++c) {
    if (c != 3 && c != 17) typical = std::max(typical, qkv.act_abs_max[c]);
  }
  EXPECT_GT(qkv.act_abs_max[3], 2.0f * typical);
}

TEST(DeployAnalog, IdealTileWithNoraIsExact) {
  eval::SynthLambadaConfig task_cfg;
  const eval::SynthLambada task(task_cfg);
  nn::TransformerLM model(tiny_arch(task_cfg));
  const auto ex = task.make_example("test", 0);
  const Matrix digital = model.forward(ex.tokens);
  DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.nora.enabled = true;
  const auto cals = deploy_analog(model, task, opts);
  EXPECT_EQ(cals.size(), model.linear_layers().size());
  EXPECT_TRUE(model.is_analog());
  const Matrix analog = model.infer(ex.tokens);
  const double rel = std::sqrt(ops::mse(digital, analog)) /
                     (ops::frobenius_norm(digital) /
                      std::sqrt(double(digital.size())));
  EXPECT_LT(rel, 1e-3);  // Eq. 6-8 cancel exactly up to fp accumulation
}

TEST(DeployAnalog, RejectsCalibrationOnAnalogModel) {
  eval::SynthLambadaConfig task_cfg;
  const eval::SynthLambada task(task_cfg);
  nn::TransformerLM model(tiny_arch(task_cfg));
  DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.nora.enabled = false;
  deploy_analog(model, task, opts);
  EXPECT_THROW(calibrate(model, task, 2), std::logic_error);
  model.to_digital();
  EXPECT_NO_THROW(calibrate(model, task, 2));
}

TEST(DistributionStats, NoraReducesInputKurtosis) {
  eval::SynthLambadaConfig task_cfg;
  const eval::SynthLambada task(task_cfg);
  nn::TransformerLM model(tiny_arch(task_cfg, 20.0f));
  NoraOptions nora;
  nora.calib_examples = 8;
  const auto naive = distribution_stats(model, task, nora, false);
  const auto rescaled = distribution_stats(model, task, nora, true);
  ASSERT_EQ(naive.size(), rescaled.size());
  // The QKV inputs (post planted gain) must show the paper's effect:
  // large kurtosis collapsing under NORA, weight kurtosis rising a bit.
  const auto& n0 = naive[0];
  const auto& r0 = rescaled[0];
  EXPECT_GT(n0.input_kurtosis, 10.0);
  EXPECT_LT(r0.input_kurtosis, 0.5 * n0.input_kurtosis);
  EXPECT_GE(r0.weight_kurtosis, n0.weight_kurtosis - 0.5);
}

TEST(ScalingFactorStats, NoraShrinksAlphaGamma) {
  eval::SynthLambadaConfig task_cfg;
  const eval::SynthLambada task(task_cfg);
  const auto ex = task.make_example("test", 0);
  auto run = [&](bool nora_on) {
    nn::TransformerLM model(tiny_arch(task_cfg, 20.0f));
    DeployOptions opts;
    opts.tile = cim::TileConfig::paper_table2();
    opts.nora.enabled = nora_on;
    deploy_analog(model, task, opts);
    model.infer(ex.tokens);
    double sum = 0.0;
    const auto stats = scaling_factor_stats(model);
    for (const auto& st : stats) sum += st.alpha_gamma_gmax;
    return sum / static_cast<double>(stats.size());
  };
  const double ag_naive = run(false);
  const double ag_nora = run(true);
  EXPECT_LT(ag_nora, ag_naive);
}

TEST(SetReadTime, RequiresDriftDeployment) {
  eval::SynthLambadaConfig task_cfg;
  const eval::SynthLambada task(task_cfg);
  nn::TransformerLM model(tiny_arch(task_cfg));
  DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.tile.drift_enabled = true;
  opts.tile.drift.nu_sigma = 0.0f;
  opts.nora.enabled = false;
  deploy_analog(model, task, opts);
  const auto ex = task.make_example("test", 1);
  const Matrix y0 = model.infer(ex.tokens, 0);
  set_read_time(model, 3600.0f);
  const Matrix y1 = model.infer(ex.tokens, 1);
  // Deterministic drift + compensation cancels exactly.
  EXPECT_LT(ops::mse(y0, y1), 1e-8);
}

}  // namespace
}  // namespace nora::core
