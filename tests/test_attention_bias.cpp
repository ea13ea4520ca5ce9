// Behavioral tests for the learned relative-position bias in attention:
// a single bias parameter must be able to express offset-based heads
// (e.g. the "previous token" head), independent of content.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/attention.hpp"

namespace nora::nn {
namespace {

TEST(RelativeBias, LargePrevTokenBiasCopiesPreviousValue) {
  util::Rng rng(1);
  CausalSelfAttention attn("a", 8, 1, 16, rng, 0.0f);  // zero-init weights
  // With zero QKV weights, V is only the bias path; make V = identity of
  // the input by setting the value block of the QKV weight to I.
  Matrix& w = attn.qkv().weight().value;  // [8 x 24]
  for (std::int64_t c = 0; c < 8; ++c) w.at(c, 16 + c) = 1.0f;
  Matrix& wo = attn.out_proj().weight().value;  // [8 x 8]
  for (std::int64_t c = 0; c < 8; ++c) wo.at(c, c) = 1.0f;
  // Huge bias at offset 1: every position attends to its predecessor.
  ParamRefs params;
  attn.collect_params(params);
  Param* bias = params.back();
  ASSERT_NE(bias->name.find("rel_bias"), std::string::npos);
  bias->value.at(0, 1) = 50.0f;

  Matrix x(4, 8);
  util::Rng xr(2);
  x.fill_gaussian(xr, 1.0f);
  const Matrix y = attn.forward(x);
  // Row t (t >= 1) should be ~ x[t-1]; row 0 attends to itself.
  for (std::int64_t t = 1; t < 4; ++t) {
    for (std::int64_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(y.at(t, c), x.at(t - 1, c), 1e-3) << "t=" << t;
    }
  }
  for (std::int64_t c = 0; c < 8; ++c) EXPECT_NEAR(y.at(0, c), x.at(0, c), 1e-3);
}

TEST(RelativeBias, ZeroBiasGivesUniformAttentionForZeroScores) {
  util::Rng rng(3);
  CausalSelfAttention attn("a", 8, 1, 16, rng, 0.0f);
  Matrix& w = attn.qkv().weight().value;
  for (std::int64_t c = 0; c < 8; ++c) w.at(c, 16 + c) = 1.0f;
  Matrix& wo = attn.out_proj().weight().value;
  for (std::int64_t c = 0; c < 8; ++c) wo.at(c, c) = 1.0f;
  Matrix x(3, 8);
  util::Rng xr(4);
  x.fill_gaussian(xr, 1.0f);
  const Matrix y = attn.forward(x);
  // Zero scores + zero bias -> uniform attention over the causal prefix.
  for (std::int64_t c = 0; c < 8; ++c) {
    EXPECT_NEAR(y.at(1, c), 0.5f * (x.at(0, c) + x.at(1, c)), 1e-4);
    EXPECT_NEAR(y.at(2, c),
                (x.at(0, c) + x.at(1, c) + x.at(2, c)) / 3.0f, 1e-4);
  }
}

TEST(RelativeBias, SequencePastMaxSeqThrowsInsteadOfReadingPastTable) {
  // Regression: offsets i-j beyond max_seq used to index past the end of
  // the rel_bias row (silent out-of-bounds read). Both forward paths now
  // reject such sequences, naming the layer and the lengths involved.
  util::Rng rng(6);
  CausalSelfAttention attn("blk3.attn", 8, 2, 4, rng, 0.1f);
  Matrix ok(4, 8);
  util::Rng xr(7);
  ok.fill_gaussian(xr, 1.0f);
  EXPECT_NO_THROW(attn.forward(ok));
  Matrix too_long(5, 8);
  too_long.fill_gaussian(xr, 1.0f);
  try {
    attn.forward(too_long);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("blk3.attn"), std::string::npos) << what;
    EXPECT_NE(what.find("5"), std::string::npos) << what;
    EXPECT_NE(what.find("4"), std::string::npos) << what;
  }
}

TEST(RelativeBias, CachedPathAlsoGuardsMaxSeq) {
  util::Rng rng(8);
  CausalSelfAttention attn("blk0.attn", 8, 2, 4, rng, 0.1f);
  KvCache::BlockCache cache;
  // Append x at global position pos0 as the only serving segment.
  const auto step = [&](const Matrix& x, std::int64_t pos0) {
    const AttnServeSeq seq{&cache, nullptr, 0, pos0, x.rows()};
    std::vector<cim::StreamKey> keys(static_cast<std::size_t>(x.rows()));
    return attn.forward_serve(x, {&seq, 1}, keys);
  };
  util::Rng xr(9);
  Matrix first(3, 8);
  first.fill_gaussian(xr, 1.0f);
  EXPECT_NO_THROW(step(first, 0));
  Matrix second(1, 8);
  second.fill_gaussian(xr, 1.0f);
  EXPECT_NO_THROW(step(second, 3));  // fills to 4
  Matrix third(1, 8);
  third.fill_gaussian(xr, 1.0f);
  try {
    step(third, 4);  // would read bias[4]
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("blk0.attn"), std::string::npos) << what;
    EXPECT_NE(what.find("max_seq"), std::string::npos) << what;
  }
}

TEST(RelativeBias, IsTrainableParam) {
  util::Rng rng(5);
  CausalSelfAttention attn("a", 8, 2, 16, rng, 0.1f);
  ParamRefs params;
  attn.collect_params(params);
  Param* bias = params.back();
  EXPECT_TRUE(bias->trainable);
  EXPECT_EQ(bias->value.rows(), 2);   // per head
  EXPECT_EQ(bias->value.cols(), 16);  // per offset up to max_seq
}

}  // namespace
}  // namespace nora::nn
