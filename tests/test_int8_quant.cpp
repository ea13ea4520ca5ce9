// Tests for the digital INT8 (W8A8) baseline and SmoothQuant rescaling.
#include <gtest/gtest.h>

#include <cmath>

#include "core/nora.hpp"
#include "quant/int8_linear.hpp"
#include "tensor/ops.hpp"

namespace nora::quant {
namespace {

Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed,
                     float std_dev = 0.5f) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.fill_gaussian(rng, std_dev);
  return m;
}

double rel_err(const Matrix& y, const Matrix& ref) {
  return std::sqrt(ops::mse(y, ref)) /
         (ops::frobenius_norm(ref) / std::sqrt(double(ref.size())));
}

TEST(Int8Linear, AccurateOnWellConditionedData) {
  const Matrix x = random_matrix(8, 64, 1, 1.0f);
  const Matrix w = random_matrix(64, 32, 2, 0.2f);
  const Matrix ref = ops::matmul(x, w);
  const Matrix y = int8_linear(x, w);
  EXPECT_LT(rel_err(y, ref), 0.02);  // 8-bit symmetric: ~1% error
}

TEST(Int8Linear, OutliersDegradeAndSmoothQuantRepairs) {
  Matrix x = random_matrix(8, 64, 3, 1.0f);
  for (std::int64_t r = 0; r < x.rows(); ++r) x.at(r, 5) *= 40.0f;
  const Matrix w = random_matrix(64, 32, 4, 0.2f);
  const Matrix ref = ops::matmul(x, w);
  const double err_plain = rel_err(int8_linear(x, w), ref);
  const auto s = smoothquant_vector(ops::col_abs_max(x), ops::row_abs_max(w));
  const double err_smooth = rel_err(int8_linear(x, w, s), ref);
  EXPECT_GT(err_plain, 2.0 * err_smooth);
}

TEST(Int8Linear, StatsReportScalesAndSaturations) {
  const Matrix x = random_matrix(4, 16, 5, 1.0f);
  const Matrix w = random_matrix(16, 8, 6, 0.2f);
  Int8GemmStats stats;
  int8_linear(x, w, {}, &stats);
  EXPECT_GT(stats.mean_act_scale, 0.0);
  EXPECT_EQ(stats.act_saturations, 0);  // abs-max scaling never saturates
}

TEST(Int8Linear, ValidatesArguments) {
  const Matrix x = random_matrix(2, 8, 7);
  const Matrix w = random_matrix(4, 8, 8);
  EXPECT_THROW(int8_linear(x, w), std::invalid_argument);
  const Matrix w2 = random_matrix(8, 4, 9);
  EXPECT_THROW(int8_linear(x, w2, std::vector<float>(3, 1.0f)),
               std::invalid_argument);
}

TEST(SmoothquantVector, MatchesNoraFormula) {
  const std::vector<float> ax{16.0f, 1.0f};
  const std::vector<float> wx{0.25f, 1.0f};
  const auto s = smoothquant_vector(ax, wx, 0.5f);
  EXPECT_NEAR(s[0], 8.0f, 1e-5);
  EXPECT_NEAR(s[1], 1.0f, 1e-6);
  EXPECT_THROW(smoothquant_vector(ax, std::vector<float>{1.0f}),
               std::invalid_argument);
}

TEST(Int8Backend, LinearRoundTripAndTrainingGuard) {
  util::Rng rng(10);
  nn::Linear lin("l", 16, 8, rng, 0.3f);
  const Matrix x = random_matrix(4, 16, 11, 1.0f);
  const Matrix fp = lin.forward(x);
  lin.to_int8({});
  EXPECT_TRUE(lin.is_int8());
  const Matrix q = lin.forward_keyed(x, {});  // INT8 ignores the keys
  EXPECT_LT(rel_err(q, fp), 0.05);
  EXPECT_THROW(lin.forward(x), std::logic_error);
  lin.to_digital();
  EXPECT_FALSE(lin.is_int8());
  EXPECT_EQ(ops::mse(lin.forward(x), fp), 0.0);
}

TEST(Int8Backend, DeployDigitalInt8OnModel) {
  eval::SynthLambadaConfig task_cfg;
  const eval::SynthLambada task(task_cfg);
  nn::TransformerConfig arch;
  arch.vocab_size = task_cfg.vocab_size();
  arch.max_seq = task_cfg.seq_len;
  arch.d_model = 24;
  arch.n_layers = 1;
  arch.n_heads = 2;
  arch.d_ff = 48;
  nn::TransformerLM model(arch);
  const auto ex = task.make_example("test", 0);
  const Matrix fp = model.forward(ex.tokens);
  core::NoraOptions opts;
  opts.enabled = true;
  core::deploy_digital_int8(model, task, opts);
  const Matrix q = model.infer(ex.tokens);
  EXPECT_LT(rel_err(q, fp), 0.1);  // W8A8 with SmoothQuant stays close
  model.to_digital();
  EXPECT_EQ(ops::mse(model.forward(ex.tokens), fp), 0.0);
}

}  // namespace
}  // namespace nora::quant
