// Decoder-only transformer language model — the inference (and training)
// stack the paper runs on top of PyTorch/HuggingFace, rebuilt in C++.
//
// All nn::Linear layers (QKV / attention-out / MLP projections / LM head)
// can be re-targeted to analog CIM tiles; embeddings, normalization,
// softmax attention and activation functions always run digitally,
// matching the deployment split of paper Fig. 2b.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/block.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "nn/param.hpp"
#include "tensor/matrix.hpp"

namespace nora::nn {

struct TransformerConfig {
  std::int64_t vocab_size = 96;
  std::int64_t d_model = 64;
  std::int64_t n_layers = 2;
  std::int64_t n_heads = 4;
  std::int64_t d_ff = 256;
  std::int64_t max_seq = 64;
  NormKind norm_kind = NormKind::kLayerNorm;
  MlpKind mlp_kind = MlpKind::kGelu;
  /// Fixed per-channel norm gain (outlier planting); empty = all ones.
  std::vector<float> norm_gain;
  float init_std = 0.05f;
  /// Initialize the LM head as the transpose of the token embedding
  /// (OPT-style weight tying at init). The two stay independent
  /// parameters afterwards, but starting with an exact copy map makes
  /// retrieval/copy circuits form much faster.
  bool tie_head_init = true;
  std::uint64_t seed = 1234;

  std::int64_t param_count() const;
};

class TransformerLM {
 public:
  explicit TransformerLM(TransformerConfig cfg);

  const TransformerConfig& config() const { return cfg_; }

  /// Training forward over one sequence of ids in [0, vocab), caching
  /// every layer's inputs for backward(). Returns logits [T x V]. Digital
  /// model only: a linear layer on a quantized backend throws.
  Matrix forward(std::span<const int> tokens);

  /// dlogits: [T x V]; accumulates all parameter gradients.
  void backward(const Matrix& dlogits);

  /// Inference over one sequence: logits [T x V] of a single-segment
  /// forward_serve on a fresh cache, on noise stream `stream` — the bits
  /// a request with these tokens as its prompt gets on that stream.
  Matrix infer(std::span<const int> tokens, std::uint64_t stream = 0);

  /// One request's slice of a batched serving step.
  struct ServeSegment {
    std::span<const int> tokens;    // new tokens (prefill chunk or 1 decode)
    KvCache* cache = nullptr;       // the request's PRIVATE cache
    std::uint64_t stream = 0;       // request noise-stream key
    /// Shared immutable prefix (a KvCachePool publication): the first
    /// base_len global positions are read from `base` and never
    /// recomputed or written; the private cache holds positions
    /// base_len.. at local row (global - base_len). Requires the same
    /// stream the base's rows were computed under, or the per-row noise
    /// keys — and therefore the logits — would differ from a cold run.
    const KvCache* base = nullptr;
    std::int64_t base_len = 0;
  };

  /// Which logits rows a forward_serve caller reads.
  enum class LogitRows {
    kEvery,           // one row per input token
    kLastPerSegment,  // one row per segment: its last token's
  };

  /// KV-cached incremental forward — the one inference path, batched
  /// for continuous serving. Appends every segment's new tokens at its
  /// positions base_len + cache->length.. in ONE pass per linear layer
  /// (the analog tile passes are shared by the whole batch), attending
  /// each segment against its own KV cache; a single segment is plain
  /// incremental decoding. Row noise is keyed on (segment stream,
  /// request-local position) — see cim::StreamKey — so each segment's
  /// logits are bit-identical whether it is served alone or batched
  /// with any other segments, at any thread count. Returns the
  /// segments' logits rows concatenated in segment order and extends
  /// every cache. Throws nn::KvCacheOverflow on capacity/max_seq
  /// violations before touching any state.
  ///
  /// With kLastPerSegment the result has one row per segment, with the
  /// bits of that segment's last row under kEvery. Every block still
  /// appends every row's K/V, but the last block attends, projects and
  /// runs its MLP, and the final norm and LM head run, only on each
  /// segment's last row — unless a layer there couples rows (kAvgAbsMax
  /// input scaling), in which case every row runs and the last rows are
  /// selected from the logits.
  Matrix forward_serve(std::span<const ServeSegment> segments,
                       LogitRows logit_rows = LogitRows::kEvery);

  /// Greedy decoding over a single-segment forward_serve loop: consume
  /// the prompt once, then emit up to max_new_tokens (bounded by
  /// max_seq) using the KV cache.
  std::vector<int> generate(std::span<const int> prompt, int max_new_tokens);

  /// All trainable + fixed parameters, in a stable order (used by the
  /// optimizer and checkpoint I/O).
  ParamRefs collect_params();
  void zero_grads();

  /// Every analog-mappable linear layer, in a stable order.
  std::vector<Linear*> linear_layers();
  std::vector<TransformerBlock>& blocks() { return blocks_; }
  Linear& lm_head() { return lm_head_; }

  /// True if any linear layer currently runs on an analog backend.
  bool is_analog() const;
  /// True when every linear layer computes each row from that row alone
  /// (Linear::rows_independent), so a row's bits do not depend on which
  /// other rows share its call. Prefix reuse is exact only then.
  bool rows_independent();
  /// Revert every linear layer to the digital backend.
  void to_digital();
  /// Route every linear layer through its exact fp32 GEMM without
  /// discarding the analog/INT8 deployment (see Linear::
  /// set_digital_bypass). The serving layer flips this around
  /// maintenance windows while the tiles are being repaired.
  void set_digital_bypass(bool on);

 private:
  TransformerConfig cfg_;
  Param tok_emb_;  // [V x d]
  Param pos_emb_;  // [max_seq x d]
  std::vector<TransformerBlock> blocks_;
  Norm final_norm_;
  Linear lm_head_;  // [d x V]
  std::vector<int> tokens_cache_;

  /// Pre-size a fresh cache's per-layer K/V matrices to its slab
  /// capacity so every later in-place append stays allocation-free.
  void init_cache_blocks(KvCache& cache) const;

  // forward_serve step scratch, reused across decode steps (assign and
  // clear keep capacity): every row's key, each segment's last row's
  // key, and the per-segment attention views.
  std::vector<cim::StreamKey> serve_keys_;
  std::vector<cim::StreamKey> serve_last_keys_;
  std::vector<AttnServeSeq> serve_seqs_;
};

}  // namespace nora::nn
