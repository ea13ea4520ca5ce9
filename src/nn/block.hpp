// Pre-LN transformer decoder block:
//   x = x + Attn(Norm1(x));  x = x + Mlp(Norm2(x))
#pragma once

#include <string>
#include <vector>

#include "nn/attention.hpp"
#include "nn/mlp.hpp"
#include "nn/norm.hpp"

namespace nora::nn {

class TransformerBlock {
 public:
  TransformerBlock(const std::string& name, NormKind norm_kind, MlpKind mlp_kind,
                   std::int64_t d_model, std::int64_t n_heads, std::int64_t d_ff,
                   std::int64_t max_seq, std::vector<float> norm_gain,
                   util::Rng& rng, float init_std);

  /// Training forward (caches every sub-layer's inputs for backward).
  Matrix forward(const Matrix& x);
  Matrix backward(const Matrix& dy);
  /// KV-cached batched serving forward over several sequences'
  /// segments (see CausalSelfAttention::forward_serve); norms and the
  /// MLP are row-wise, attention is per-segment. A non-empty
  /// `last_keys` (one per segment, its last row's) carries only each
  /// segment's last row past the K/V append: the result then has one
  /// row per segment.
  Matrix forward_serve(const Matrix& x, std::span<const AttnServeSeq> seqs,
                       std::span<const cim::StreamKey> keys,
                       std::span<const cim::StreamKey> last_keys = {});
  /// True when every analog layer after the K/V append (out projection
  /// and MLP) computes each row from that row alone, so running only
  /// the last rows leaves their bits unchanged.
  bool rows_independent_after_attention();

  Norm& norm1() { return norm1_; }
  Norm& norm2() { return norm2_; }
  CausalSelfAttention& attention() { return attn_; }
  Mlp& mlp() { return mlp_; }

  void collect_params(ParamRefs& out);
  void collect_linears(std::vector<Linear*>& out);

 private:
  Norm norm1_;
  CausalSelfAttention attn_;
  Norm norm2_;
  Mlp mlp_;
};

}  // namespace nora::nn
