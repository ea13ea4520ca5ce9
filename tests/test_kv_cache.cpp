// Tests for KV-cached incremental decoding through a single-segment
// forward_serve: the cached path must be numerically identical to the
// full-context forward, on both digital and (noise-free) analog backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "cim/tile_config.hpp"
#include "nn/transformer.hpp"
#include "tensor/ops.hpp"

namespace nora::nn {
namespace {

TransformerLM make_model() {
  TransformerConfig cfg;
  cfg.vocab_size = 30;
  cfg.d_model = 24;
  cfg.n_layers = 2;
  cfg.n_heads = 3;
  cfg.d_ff = 48;
  cfg.max_seq = 16;
  cfg.seed = 77;
  return TransformerLM(cfg);
}

const std::vector<int> kTokens{3, 1, 4, 1, 5, 9, 2, 6};

/// One request's incremental step: `tokens` appended to `cache` as the
/// only segment of a serving forward.
Matrix serve(TransformerLM& model, std::span<const int> tokens,
             KvCache& cache) {
  TransformerLM::ServeSegment seg;
  seg.tokens = tokens;
  seg.cache = &cache;
  return model.forward_serve({&seg, 1});
}

TEST(KvCache, BulkCachedForwardMatchesFullForward) {
  TransformerLM model = make_model();
  const Matrix full = model.forward(kTokens);
  KvCache cache;
  const Matrix cached = serve(model, kTokens, cache);
  EXPECT_EQ(cache.length, static_cast<std::int64_t>(kTokens.size()));
  ASSERT_TRUE(full.same_shape(cached));
  for (std::int64_t i = 0; i < full.size(); ++i) {
    EXPECT_NEAR(full.data()[i], cached.data()[i], 1e-4) << "index " << i;
  }
}

TEST(KvCache, TokenByTokenMatchesFullForward) {
  TransformerLM model = make_model();
  const Matrix full = model.forward(kTokens);
  KvCache cache;
  for (std::size_t t = 0; t < kTokens.size(); ++t) {
    const int tok[] = {kTokens[t]};
    const Matrix logits = serve(model, tok, cache);
    ASSERT_EQ(logits.rows(), 1);
    const auto ref = full.row(static_cast<std::int64_t>(t));
    const auto got = logits.row(0);
    for (std::int64_t v = 0; v < full.cols(); ++v) {
      ASSERT_NEAR(ref[v], got[v], 1e-3) << "t=" << t << " v=" << v;
    }
  }
}

TEST(KvCache, ChunkedPrefillMatches) {
  TransformerLM model = make_model();
  const Matrix full = model.forward(kTokens);
  KvCache cache;
  const std::vector<int> first(kTokens.begin(), kTokens.begin() + 3);
  const std::vector<int> rest(kTokens.begin() + 3, kTokens.end());
  serve(model, first, cache);
  const Matrix tail = serve(model, rest, cache);
  for (std::int64_t t = 0; t < tail.rows(); ++t) {
    const auto ref = full.row(3 + t);
    const auto got = tail.row(t);
    for (std::int64_t v = 0; v < full.cols(); ++v) {
      ASSERT_NEAR(ref[v], got[v], 1e-3);
    }
  }
}

TEST(KvCache, WorksOnIdealAnalogBackend) {
  TransformerLM model = make_model();
  const Matrix full = model.forward(kTokens);
  for (auto* lin : model.linear_layers()) {
    lin->to_analog(cim::TileConfig::ideal(), {}, 5);
  }
  KvCache cache;
  const Matrix cached = serve(model, kTokens, cache);
  EXPECT_LT(ops::mse(full, cached), 1e-6);
}

TEST(KvCache, ValidatesUsage) {
  TransformerLM model = make_model();
  KvCache cache;
  EXPECT_THROW(serve(model, std::vector<int>{}, cache),
               std::invalid_argument);
  EXPECT_THROW(serve(model, std::vector<int>(17, 1), cache),
               std::invalid_argument);
  serve(model, std::vector<int>{1, 2}, cache);
  EXPECT_THROW(serve(model, std::vector<int>{99}, cache),
               std::invalid_argument);
  KvCache foreign;
  foreign.blocks.resize(5);
  EXPECT_THROW(serve(model, std::vector<int>{1}, foreign),
               std::invalid_argument);
}

TEST(KvCache, TrimRewindsAndReplaysBitIdentically) {
  TransformerLM model = make_model();
  const std::vector<int> head(kTokens.begin(), kTokens.begin() + 3);
  const std::vector<int> rest(kTokens.begin() + 3, kTokens.end());
  KvCache cache;
  serve(model, head, cache);
  const Matrix tail1 = serve(model, rest, cache);
  EXPECT_EQ(cache.length, 8);
  const std::int64_t bytes_full = cache.bytes();
  // Rewind past the tail and replay it: same cache state, same math,
  // bit-identical logits.
  cache.trim(3);
  EXPECT_EQ(cache.length, 3);
  EXPECT_LT(cache.bytes(), bytes_full);
  const Matrix tail2 = serve(model, rest, cache);
  ASSERT_TRUE(tail1.same_shape(tail2));
  EXPECT_EQ(std::memcmp(tail1.data(), tail2.data(),
                        sizeof(float) * static_cast<std::size_t>(tail1.size())),
            0);
}

TEST(KvCache, TrimValidates) {
  TransformerLM model = make_model();
  KvCache cache;
  serve(model, kTokens, cache);
  EXPECT_THROW(cache.trim(-1), std::invalid_argument);
  cache.trim(cache.length);  // no-op
  EXPECT_EQ(cache.length, 8);
  cache.trim(100);  // longer than length: also a no-op
  EXPECT_EQ(cache.length, 8);
  cache.trim(0);
  EXPECT_EQ(cache.length, 0);
  EXPECT_EQ(cache.bytes(), 0);
  // An emptied cache is immediately reusable.
  const Matrix again = serve(model, kTokens, cache);
  EXPECT_EQ(cache.length, 8);
  EXPECT_EQ(again.rows(), 8);
}

TEST(KvCache, CapacityGuardThrowsNamedErrorBeforeTouchingState) {
  TransformerLM model = make_model();
  KvCache cache;
  cache.capacity = 4;
  serve(model, std::vector<int>{1, 2, 3}, cache);
  EXPECT_EQ(cache.length, 3);
  // 2 more tokens would need length 5 > capacity 4: named error, cache
  // untouched.
  EXPECT_THROW(serve(model, std::vector<int>{4, 5}, cache),
               KvCacheOverflow);
  EXPECT_EQ(cache.length, 3);
  // One more token exactly fills the capacity.
  serve(model, std::vector<int>{4}, cache);
  EXPECT_EQ(cache.length, 4);
  EXPECT_THROW(serve(model, std::vector<int>{5}, cache),
               KvCacheOverflow);
  // The model-level max_seq guard is the same named error.
  KvCache fresh;
  EXPECT_THROW(serve(model, std::vector<int>(17, 1), fresh),
               KvCacheOverflow);
}

TEST(Generate, GreedyMatchesArgmaxOfRepeatedInference) {
  TransformerLM model = make_model();
  std::vector<int> prompt{3, 1, 4};
  const auto generated = model.generate(prompt, 5);
  ASSERT_EQ(generated.size(), 5u);
  std::vector<int> seq = prompt;
  for (int tok : generated) {
    const Matrix logits = model.infer(seq);
    const auto last = logits.row(logits.rows() - 1);
    EXPECT_EQ(tok, std::max_element(last.begin(), last.end()) - last.begin());
    seq.push_back(tok);
  }
}

TEST(Generate, StopsAtMaxSeq) {
  TransformerLM model = make_model();
  std::vector<int> prompt{1, 2, 3};
  const auto generated = model.generate(prompt, 100);
  // max_seq = 16, prompt 3 -> at most 13 new tokens.
  EXPECT_LE(generated.size(), 13u);
  EXPECT_GE(generated.size(), 12u);
  EXPECT_THROW(model.generate(std::vector<int>{}, 3), std::invalid_argument);
}

}  // namespace
}  // namespace nora::nn
