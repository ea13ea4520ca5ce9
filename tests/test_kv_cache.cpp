// Tests for KV-cached incremental decoding through a single-segment
// forward_serve: the cached path must be numerically identical to the
// full-context forward, on both digital and (noise-free) analog backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "cim/tile_config.hpp"
#include "nn/attention.hpp"
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

/// Test-local reference for CausalSelfAttention::forward_serve on one
/// segment: the score loop one key at a time, each score a single
/// `sc += q[c] * k[c]` chain, then the same softmax and P·V. The K/V
/// history (global rows [0, pos0)) is one contiguous pair of matrices
/// here, whatever base/private split the served cache uses; the new
/// rows are appended to it.
Matrix one_key_reference(CausalSelfAttention& attn, const Matrix& x,
                         std::int64_t pos0, Matrix& hist_k, Matrix& hist_v,
                         std::span<const cim::StreamKey> keys) {
  const std::int64_t d = attn.d_model();
  const std::int64_t d_head = d / attn.n_heads();
  const Matrix qkv = attn.qkv().forward_keyed(x, keys);
  hist_k.resize_rows(pos0 + x.rows());
  hist_v.resize_rows(pos0 + x.rows());
  for (std::int64_t t = 0; t < x.rows(); ++t) {
    for (std::int64_t c = 0; c < d; ++c) {
      hist_k.at(pos0 + t, c) = qkv.at(t, d + c);
      hist_v.at(pos0 + t, c) = qkv.at(t, 2 * d + c);
    }
  }
  ParamRefs params;
  attn.collect_params(params);
  const Matrix& rel_bias = params.back()->value;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
  Matrix concat(x.rows(), d);
  std::vector<float> probs(static_cast<std::size_t>(pos0 + x.rows()));
  for (std::int64_t h = 0; h < attn.n_heads(); ++h) {
    const std::int64_t off = h * d_head;
    const auto bias = rel_bias.row(h);
    for (std::int64_t i = 0; i < x.rows(); ++i) {
      const std::int64_t gi = pos0 + i;
      const auto qi = qkv.row(i);
      float row_max = -1e30f;
      for (std::int64_t j = 0; j <= gi; ++j) {
        const auto kj = hist_k.row(j);
        float sc = 0.0f;
        for (std::int64_t c = 0; c < d_head; ++c) {
          sc += qi[off + c] * kj[off + c];
        }
        sc = sc * scale + bias[gi - j];
        probs[static_cast<std::size_t>(j)] = sc;
        row_max = std::max(row_max, sc);
      }
      float denom = 0.0f;
      for (std::int64_t j = 0; j <= gi; ++j) {
        float& pj = probs[static_cast<std::size_t>(j)];
        pj = std::exp(pj - row_max);
        denom += pj;
      }
      const float inv = 1.0f / denom;
      auto oi = concat.row(i);
      for (std::int64_t j = 0; j <= gi; ++j) {
        const float p = probs[static_cast<std::size_t>(j)] * inv;
        const auto vj = hist_v.row(j);
        for (std::int64_t c = 0; c < d_head; ++c) {
          oi[off + c] += p * vj[off + c];
        }
      }
    }
  }
  return attn.out_proj().forward_keyed(concat, keys);
}

// forward_serve scores eight keys at a time, each key on its own FMA
// chain, with a one-key tail. It must equal the one-key loop bit for
// bit at every history length (every block count and tail size), and
// on a leased prefix whose base length is not a multiple of eight, so
// the base/private lookup switches range inside a block.
TEST(KvCache, BlockedScoresMatchOneKeyAtATimeReference) {
  constexpr std::int64_t kLen = 40;  // 4 blocks + 8 > 3 blocks + 7
  constexpr std::int64_t kBase = 13;
  util::Rng rng(31);
  CausalSelfAttention attn("blk0.attn", 64, 2, kLen, rng, 0.3f);
  ParamRefs params;
  attn.collect_params(params);
  util::Rng br(32);
  params.back()->value.fill_gaussian(br, 0.5f);
  Matrix x(kLen, 64);
  util::Rng xr(33);
  x.fill_gaussian(xr, 1.0f);

  // One segment of rows [r0, r1) against `cache` (global rows [0, base)
  // leased from `base`), checked against the reference.
  const auto step = [&](KvCache::BlockCache& cache,
                        const KvCache::BlockCache* base, std::int64_t base_rows,
                        std::int64_t r0, std::int64_t r1, Matrix& hist_k,
                        Matrix& hist_v) {
    const Matrix xs = x.slice_rows(r0, r1);
    std::vector<cim::StreamKey> keys(static_cast<std::size_t>(r1 - r0));
    const AttnServeSeq seq{&cache, base, base_rows, r0, r1 - r0};
    const Matrix got = attn.forward_serve(xs, {&seq, 1}, keys);
    const Matrix want = one_key_reference(attn, xs, r0, hist_k, hist_v, keys);
    ASSERT_TRUE(got.same_shape(want));
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * static_cast<std::size_t>(got.size())),
              0)
        << "rows [" << r0 << ", " << r1 << "), base " << base_rows;
  };

  // Cold: a 13-row prefill (histories 1..13), then one row at a time.
  KvCache::BlockCache cold;
  Matrix cold_k(0, 64), cold_v(0, 64);
  step(cold, nullptr, 0, 0, kBase, cold_k, cold_v);
  for (std::int64_t r = kBase; r < kLen; ++r) {
    step(cold, nullptr, 0, r, r + 1, cold_k, cold_v);
  }

  // Warm: the cold run's first 13 rows leased as the shared base; a
  // 3-row chunk, then one row at a time. Block [8, 16) straddles it.
  KvCache::BlockCache base = cold;
  base.k.resize_rows(kBase);
  base.v.resize_rows(kBase);
  KvCache::BlockCache priv;
  Matrix warm_k = base.k, warm_v = base.v;
  step(priv, &base, kBase, kBase, kBase + 3, warm_k, warm_v);
  for (std::int64_t r = kBase + 3; r < kLen; ++r) {
    step(priv, &base, kBase, r, r + 1, warm_k, warm_v);
  }
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
