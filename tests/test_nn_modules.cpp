// Unit tests for the neural-network modules (forward semantics; the
// backward passes are covered by the finite-difference suite).
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/norm.hpp"
#include "nn/transformer.hpp"
#include "tensor/ops.hpp"

namespace nora::nn {
namespace {

Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.fill_gaussian(rng, 1.0f);
  return m;
}

TEST(Activations, GeluKnownValues) {
  EXPECT_NEAR(gelu(0.0f), 0.0f, 1e-6);
  EXPECT_NEAR(gelu(3.0f), 3.0f, 1e-2);    // saturates to identity
  EXPECT_NEAR(gelu(-3.0f), 0.0f, 1e-2);   // saturates to zero
  EXPECT_LT(gelu(-1.0f), 0.0f);           // dips below zero
  // Numerical derivative agreement.
  for (float x = -2.0f; x <= 2.0f; x += 0.37f) {
    const float fd = (gelu(x + 1e-3f) - gelu(x - 1e-3f)) / 2e-3f;
    EXPECT_NEAR(gelu_grad(x), fd, 1e-3);
  }
}

TEST(Activations, SiluKnownValues) {
  EXPECT_NEAR(silu(0.0f), 0.0f, 1e-6);
  EXPECT_NEAR(silu(5.0f), 5.0f, 5e-2);
  for (float x = -2.0f; x <= 2.0f; x += 0.37f) {
    const float fd = (silu(x + 1e-3f) - silu(x - 1e-3f)) / 2e-3f;
    EXPECT_NEAR(silu_grad(x), fd, 1e-3);
  }
}

TEST(Linear, ForwardMatchesGemmPlusBias) {
  util::Rng rng(1);
  Linear lin("l", 8, 4, rng, 0.5f);
  lin.bias().value.at(0, 2) = 3.0f;
  const Matrix x = random_matrix(5, 8, 2);
  const Matrix y = lin.forward(x);
  Matrix ref = ops::matmul(x, lin.weight().value);
  ops::add_row_vector(ref, lin.bias().value.row(0));
  EXPECT_LT(ops::mse(y, ref), 1e-12);
  EXPECT_THROW(lin.forward(Matrix(2, 3)), std::invalid_argument);
}

TEST(Linear, AnalogBackendIdealMatchesDigital) {
  util::Rng rng(3);
  Linear lin("l", 16, 8, rng, 0.5f);
  const Matrix x = random_matrix(4, 16, 4);
  const Matrix digital = lin.forward(x);
  lin.to_analog(cim::TileConfig::ideal(), {}, 99);
  EXPECT_TRUE(lin.is_analog());
  const Matrix analog = lin.forward_keyed(x, cim::stream_keys(0, x.rows()));
  EXPECT_LT(ops::mse(digital, analog), 1e-6);
  lin.to_digital();
  EXPECT_FALSE(lin.is_analog());
}

TEST(Linear, TrainingThroughAnalogRejected) {
  util::Rng rng(5);
  Linear lin("l", 4, 4, rng, 0.5f);
  lin.to_analog(cim::TileConfig::ideal(), {}, 1);
  EXPECT_THROW(lin.forward(random_matrix(2, 4, 6)), std::logic_error);
}

TEST(Linear, CaptureInputRecordsChannelMax) {
  util::Rng rng(7);
  Linear lin("l", 3, 2, rng, 0.5f);
  lin.set_capture_input(true);
  Matrix x(2, 3, {1.0f, -5.0f, 2.0f, -3.0f, 4.0f, 0.5f});
  lin.forward(x);
  const auto m = lin.input_abs_max();
  EXPECT_FLOAT_EQ(m[0], 3.0f);
  EXPECT_FLOAT_EQ(m[1], 5.0f);
  EXPECT_FLOAT_EQ(m[2], 2.0f);
}

TEST(Linear, CaptureFullAccumulatesRows) {
  util::Rng rng(8);
  Linear lin("l", 3, 2, rng, 0.5f);
  lin.set_capture_full(true);
  const Matrix x1 = random_matrix(2, 3, 9);
  const Matrix x2 = random_matrix(3, 3, 10);
  lin.forward(x1);
  // The inference forward captures too: calibration runs through it.
  lin.forward_keyed(x2, cim::stream_keys(0, x2.rows()));
  EXPECT_EQ(lin.captured_inputs().rows(), 5);
  // Rows are appended in call order, bit for bit.
  const Matrix& got = lin.captured_inputs();
  for (std::int64_t r = 0; r < 5; ++r) {
    for (std::int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(got.at(r, c), r < 2 ? x1.at(r, c) : x2.at(r - 2, c));
    }
  }
  lin.set_capture_full(false);
}

TEST(Norm, LayerNormNormalizesRows) {
  Norm ln("n", NormKind::kLayerNorm, 8);
  const Matrix x = random_matrix(4, 8, 11);
  const Matrix y = ln.forward(x);
  for (std::int64_t t = 0; t < y.rows(); ++t) {
    double mean = 0.0, var = 0.0;
    for (float v : y.row(t)) mean += v;
    mean /= 8;
    for (float v : y.row(t)) var += (v - mean) * (v - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Norm, RmsNormPreservesDirectionPerChannelGain) {
  std::vector<float> gain(8, 1.0f);
  gain[3] = 10.0f;
  Norm rn("n", NormKind::kRmsNorm, 8, gain);
  Matrix x(1, 8);
  x.fill(1.0f);
  const Matrix y = rn.forward(x);
  EXPECT_NEAR(y.at(0, 3) / y.at(0, 0), 10.0, 1e-4);  // gain is per channel
  // RMSNorm: output RMS (pre-gain) is 1, so channel 0 ~ 1/1 = 1.
  EXPECT_NEAR(y.at(0, 0), 1.0, 1e-3);
}

TEST(Norm, GainIsNotTrainableBiasFollowsKind) {
  Norm ln("a", NormKind::kLayerNorm, 4);
  Norm rn("b", NormKind::kRmsNorm, 4);
  ParamRefs pl, pr;
  ln.collect_params(pl);
  rn.collect_params(pr);
  EXPECT_FALSE(pl[0]->trainable);  // gain
  EXPECT_TRUE(pl[1]->trainable);   // LayerNorm bias
  EXPECT_FALSE(pr[0]->trainable);
  EXPECT_FALSE(pr[1]->trainable);  // RMSNorm has no bias
  EXPECT_THROW(Norm("c", NormKind::kLayerNorm, 4, std::vector<float>(3, 1.0f)),
               std::invalid_argument);
}

TEST(Attention, CausalityFutureTokensDoNotAffectPast) {
  util::Rng rng(12);
  CausalSelfAttention attn("a", 16, 4, 32, rng, 0.2f);
  Matrix x = random_matrix(6, 16, 13);
  const Matrix y1 = attn.forward(x);
  // Perturb the last token only; earlier outputs must be unchanged.
  for (std::int64_t c = 0; c < 16; ++c) x.at(5, c) += 1.0f;
  const Matrix y2 = attn.forward(x);
  for (std::int64_t t = 0; t < 5; ++t) {
    for (std::int64_t c = 0; c < 16; ++c) {
      EXPECT_FLOAT_EQ(y1.at(t, c), y2.at(t, c)) << "t=" << t;
    }
  }
  // The last row must change.
  double diff = 0.0;
  for (std::int64_t c = 0; c < 16; ++c) diff += std::fabs(y1.at(5, c) - y2.at(5, c));
  EXPECT_GT(diff, 1e-3);
}

TEST(Attention, HeadsMustDivide) {
  util::Rng rng(14);
  EXPECT_THROW(CausalSelfAttention("a", 10, 4, 8, rng, 0.1f),
               std::invalid_argument);
}

TEST(Mlp, GatedAndPlainShapes) {
  util::Rng rng(15);
  Mlp gelu_mlp("g", MlpKind::kGelu, 8, 16, rng, 0.2f);
  Mlp gated_mlp("s", MlpKind::kSiluGated, 8, 16, rng, 0.2f);
  const Matrix x = random_matrix(3, 8, 16);
  EXPECT_EQ(gelu_mlp.forward(x).cols(), 8);
  EXPECT_EQ(gated_mlp.forward(x).cols(), 8);
  std::vector<Linear*> lins;
  gelu_mlp.collect_linears(lins);
  EXPECT_EQ(lins.size(), 2u);
  lins.clear();
  gated_mlp.collect_linears(lins);
  EXPECT_EQ(lins.size(), 3u);
}

TEST(Transformer, ForwardShapesAndValidation) {
  TransformerConfig cfg;
  cfg.vocab_size = 20;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  cfg.max_seq = 10;
  TransformerLM model(cfg);
  const std::vector<int> tokens{1, 2, 3, 4};
  const Matrix logits = model.forward(tokens);
  EXPECT_EQ(logits.rows(), 4);
  EXPECT_EQ(logits.cols(), 20);
  EXPECT_THROW(model.forward(std::vector<int>{}), std::invalid_argument);
  EXPECT_THROW(model.forward(std::vector<int>(11, 1)), std::invalid_argument);
  EXPECT_THROW(model.forward(std::vector<int>{25}), std::invalid_argument);
  // Inference runs the serving path; on a digital model it computes the
  // training forward's logits bit for bit.
  EXPECT_EQ(ops::mse(model.infer(tokens), logits), 0.0);
}

TEST(Transformer, LinearLayerEnumerationIsStable) {
  TransformerConfig cfg;
  cfg.vocab_size = 20;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  cfg.mlp_kind = MlpKind::kSiluGated;
  TransformerLM model(cfg);
  const auto lins = model.linear_layers();
  // 2 per attention + 3 per gated MLP per block, + LM head.
  EXPECT_EQ(lins.size(), 2u * 5u + 1u);
  EXPECT_EQ(lins.back()->name(), "lm_head");
  EXPECT_EQ(lins[0]->name(), "blk0.attn.qkv");
}

TEST(Transformer, ParamCountMatchesEnumeration) {
  TransformerConfig cfg;
  cfg.vocab_size = 30;
  cfg.d_model = 24;
  cfg.n_layers = 3;
  cfg.n_heads = 4;
  cfg.d_ff = 48;
  cfg.max_seq = 16;
  TransformerLM model(cfg);
  std::int64_t total = 0;
  for (const Param* p : model.collect_params()) total += p->value.size();
  EXPECT_EQ(total, cfg.param_count());
}

TEST(Transformer, AnalogDeployAndRevert) {
  TransformerConfig cfg;
  cfg.vocab_size = 20;
  cfg.d_model = 16;
  cfg.n_layers = 1;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  TransformerLM model(cfg);
  const std::vector<int> tokens{3, 1, 4, 1, 5};
  const Matrix digital = model.forward(tokens);
  for (auto* lin : model.linear_layers()) {
    lin->to_analog(cim::TileConfig::ideal(), {}, 7);
  }
  EXPECT_TRUE(model.is_analog());
  const Matrix analog = model.infer(tokens);
  EXPECT_LT(ops::mse(digital, analog), 1e-6);
  model.to_digital();
  EXPECT_FALSE(model.is_analog());
}

TEST(Transformer, TiedHeadInitCopiesEmbedding) {
  TransformerConfig cfg;
  cfg.vocab_size = 12;
  cfg.d_model = 8;
  cfg.n_layers = 1;
  cfg.n_heads = 2;
  cfg.d_ff = 16;
  cfg.tie_head_init = true;
  TransformerLM tied(cfg);
  ParamRefs params = tied.collect_params();
  const Param* emb = params.front();
  ASSERT_EQ(emb->name, "tok_emb");
  const Matrix& head = tied.lm_head().weight().value;
  for (std::int64_t v = 0; v < 12; ++v) {
    for (std::int64_t c = 0; c < 8; ++c) {
      EXPECT_FLOAT_EQ(emb->value.at(v, c), head.at(c, v));
    }
  }
}

}  // namespace
}  // namespace nora::nn
