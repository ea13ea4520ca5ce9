// Causal multi-head self-attention.
//
// Per the paper's deployment split (Fig. 2b), the QKV and output
// projections are nn::Linear (analog-mappable), while the softmax
// attention itself always runs digitally at full precision.
#pragma once

#include <string>
#include <vector>

#include "nn/kv_cache.hpp"
#include "nn/linear.hpp"
#include "nn/param.hpp"
#include "tensor/matrix.hpp"

namespace nora::nn {

/// One sequence's slice of a batched serving forward: `rows` new rows
/// of the input matrix belong to the sequence whose per-layer cache is
/// `cache`, starting at GLOBAL position pos0. Segments are concatenated
/// in input-row order.
///
/// Cross-request prefix sharing splits the sequence's K/V history into
/// two ranges: global positions [0, base_rows) live in the immutable
/// shared `base` (a retired request's published rows — never written),
/// and positions [base_rows, pos0) in the request's own `cache` at
/// local row j - base_rows. All appends go to the private cache, so
/// divergence from the shared prefix is copy-on-write by construction.
/// base == nullptr / base_rows == 0 is the ordinary unshared case, with
/// pos0 == cache->k.rows().
struct AttnServeSeq {
  KvCache::BlockCache* cache = nullptr;
  const KvCache::BlockCache* base = nullptr;
  std::int64_t base_rows = 0;
  std::int64_t pos0 = 0;
  std::int64_t rows = 0;
};

class CausalSelfAttention {
 public:
  /// max_seq bounds the learned relative-position bias table: scores get
  /// a per-head additive bias b_h[i-j], which lets offset-based heads
  /// (e.g. the "previous token" head of induction circuits) form from a
  /// single parameter instead of per-position-pair statistics.
  CausalSelfAttention(const std::string& name, std::int64_t d_model,
                      std::int64_t n_heads, std::int64_t max_seq,
                      util::Rng& rng, float init_std);

  const std::string& name() const { return name_; }
  std::int64_t d_model() const { return d_model_; }
  std::int64_t n_heads() const { return n_heads_; }

  /// x: [T x d_model] (one sequence) -> [T x d_model]. Throws
  /// std::invalid_argument (naming the layer and both lengths) when T
  /// exceeds max_seq — the relative-position bias table has no entry
  /// for larger offsets, and reading past it is undefined behavior.
  Matrix forward(const Matrix& x, bool training = false);
  Matrix backward(const Matrix& dy);

  /// Incremental (KV-cached) forward, the only inference path: x is the
  /// row-wise concatenation of several sequences' new rows (continuous
  /// batching: any mix of multi-row prefills and single-row decode
  /// steps; a single segment is plain incremental decoding). The QKV
  /// and output projections run once over the whole batch (one pass
  /// through the analog tiles, keyed per row by `keys`); the softmax
  /// attention runs per (sequence, head) against that sequence's own
  /// cache and appends the new keys/values to it. Each sequence's output
  /// is therefore bit-identical however the batch is composed. Throws
  /// std::invalid_argument (naming the layer and max_seq) when a
  /// segment's pos0 + rows exceeds max_seq (see forward()).
  Matrix forward_serve(const Matrix& x, std::span<const AttnServeSeq> seqs,
                       std::span<const cim::StreamKey> keys);

  Linear& qkv() { return qkv_; }
  Linear& out_proj() { return out_proj_; }

  /// Pipeline placement stamp for the timing co-sim (see
  /// Linear::set_timing_chip): covers the digital score/context op; the
  /// qkv/out projections carry their own stamps.
  void set_timing_chip(int chip) { timing_chip_ = chip; }
  int timing_chip() const { return timing_chip_; }
  void collect_params(ParamRefs& out);
  void collect_linears(std::vector<Linear*>& out);

 private:
  std::string name_;
  int timing_chip_ = 0;
  std::int64_t d_model_ = 0;
  std::int64_t n_heads_ = 0;
  std::int64_t d_head_ = 0;
  std::int64_t max_seq_ = 0;
  Linear qkv_;       // [d, 3d]
  Linear out_proj_;  // [d, d]
  Param rel_bias_;   // [heads x max_seq]: score(i,j) += rel_bias[h][i-j]
  // Backward caches (one sequence at a time).
  Matrix qkv_cache_;                 // [T x 3d]
  std::vector<Matrix> probs_cache_;  // per head: [T x T] softmax rows
  // forward_serve step scratch, reused across steps: segment row
  // offsets, and one max_seq-long softmax row per (sequence, head) item.
  // Pool workers read and write it, so it lives here rather than in
  // thread-local storage, whose growth would depend on which thread ran
  // which item.
  std::vector<std::int64_t> serve_r0_;
  std::vector<float> serve_probs_;
};

}  // namespace nora::nn
