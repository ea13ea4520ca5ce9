#include "nn/attention.hpp"

#include <cmath>
#include <stdexcept>

#include "timing/trace.hpp"
#include "util/thread_pool.hpp"

namespace nora::nn {

CausalSelfAttention::CausalSelfAttention(const std::string& name,
                                         std::int64_t d_model,
                                         std::int64_t n_heads,
                                         std::int64_t max_seq, util::Rng& rng,
                                         float init_std)
    : name_(name),
      scores_name_(name + ".scores"),
      d_model_(d_model),
      n_heads_(n_heads),
      d_head_(d_model / n_heads),
      max_seq_(max_seq),
      qkv_(name + ".qkv", d_model, 3 * d_model, rng, init_std),
      out_proj_(name + ".out", d_model, d_model, rng, init_std),
      rel_bias_(name + ".rel_bias", Matrix(n_heads, max_seq)) {
  if (d_model % n_heads != 0) {
    throw std::invalid_argument("attention: d_model must be divisible by heads");
  }
}

Matrix CausalSelfAttention::forward(const Matrix& x) {
  const std::int64_t t_len = x.rows();
  // The rel_bias table only covers offsets [0, max_seq); a longer
  // sequence would read past its row (silent garbage scores at best).
  if (t_len > max_seq_) {
    throw std::invalid_argument(
        "attention[" + name_ + "]: sequence length " + std::to_string(t_len) +
        " exceeds max_seq " + std::to_string(max_seq_));
  }
  qkv_cache_ = qkv_.forward(x);  // [T x 3d]
  const Matrix& qkv = qkv_cache_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  Matrix concat(t_len, d_model_);
  probs_cache_.assign(static_cast<std::size_t>(n_heads_), Matrix());
  // Heads are independent and write disjoint column slices of `concat`,
  // so they fan out over the pool as-is; the math per head is untouched,
  // making the result bit-identical to the sequential loop.
  util::ThreadPool::global().parallel_for(n_heads_, [&](std::int64_t h) {
    const std::int64_t q_off = h * d_head_;
    const std::int64_t k_off = d_model_ + h * d_head_;
    const std::int64_t v_off = 2 * d_model_ + h * d_head_;
    // Causal softmax(Q K^T / sqrt(dh) + b[i-j]) V, row-wise softmax.
    const auto bias = rel_bias_.value.row(h);
    Matrix probs(t_len, t_len);
    for (std::int64_t i = 0; i < t_len; ++i) {
      const auto qi = qkv.row(i);
      auto pi = probs.row(i);
      float row_max = -1e30f;
      for (std::int64_t j = 0; j <= i; ++j) {
        const auto kj = qkv.row(j);
        float s = 0.0f;
        for (std::int64_t c = 0; c < d_head_; ++c) s += qi[q_off + c] * kj[k_off + c];
        s = s * scale + bias[i - j];
        pi[j] = s;
        row_max = std::max(row_max, s);
      }
      float denom = 0.0f;
      for (std::int64_t j = 0; j <= i; ++j) {
        pi[j] = std::exp(pi[j] - row_max);
        denom += pi[j];
      }
      const float inv = 1.0f / denom;
      for (std::int64_t j = 0; j <= i; ++j) pi[j] *= inv;
      auto oi = concat.row(i);
      for (std::int64_t j = 0; j <= i; ++j) {
        const float p = pi[j];
        const auto vj = qkv.row(j);
        for (std::int64_t c = 0; c < d_head_; ++c) oi[q_off + c] += p * vj[v_off + c];
      }
    }
    probs_cache_[static_cast<std::size_t>(h)] = std::move(probs);
  });
  return out_proj_.forward(concat);
}

Matrix CausalSelfAttention::forward_serve(
    const Matrix& x, std::span<const AttnServeSeq> seqs,
    std::span<const cim::StreamKey> keys,
    std::span<const cim::StreamKey> last_keys) {
  const std::int64_t n_seqs = static_cast<std::int64_t>(seqs.size());
  const bool last_only = !last_keys.empty();
  if (last_only && last_keys.size() != seqs.size()) {
    throw std::invalid_argument(
        "attention forward_serve: one last-row key per segment required");
  }
  // First query row of a sequence: its last row when only those are
  // read. Its output lands at row s (last rows) or r0[s] + i.
  const auto first_query = [&](const AttnServeSeq& seq) {
    return last_only ? seq.rows - 1 : std::int64_t{0};
  };
  // Step scratch, shared by the worker lambdas below — a member (not
  // thread_local) because pool workers must see the main thread's fill.
  // assign() keeps capacity, so steady-state steps don't allocate.
  std::vector<std::int64_t>& r0 = serve_r0_;
  r0.assign(static_cast<std::size_t>(n_seqs), 0);
  std::int64_t total = 0;
  for (std::int64_t s = 0; s < n_seqs; ++s) {
    const AttnServeSeq& seq = seqs[static_cast<std::size_t>(s)];
    if (seq.cache == nullptr || seq.rows <= 0) {
      throw std::invalid_argument("attention forward_serve: bad segment");
    }
    if (seq.base_rows < 0 || seq.base_rows > seq.pos0 ||
        (seq.base_rows > 0) != (seq.base != nullptr) ||
        (seq.base != nullptr && (seq.base->k.rows() < seq.base_rows ||
                                 seq.base->k.cols() != d_model_))) {
      throw std::invalid_argument("attention forward_serve: bad prefix base");
    }
    if (seq.pos0 + seq.rows > max_seq_) {
      throw std::invalid_argument(
          "attention[" + name_ + "]: cached sequence length " +
          std::to_string(seq.pos0 + seq.rows) + " exceeds max_seq " +
          std::to_string(max_seq_));
    }
    if (seq.base_rows + seq.cache->k.rows() != seq.pos0 ||
        (seq.pos0 - seq.base_rows > 0 && seq.cache->k.cols() != d_model_)) {
      throw std::invalid_argument("attention forward_serve: cache out of sync");
    }
    r0[static_cast<std::size_t>(s)] = total;
    total += seq.rows;
  }
  if (total != x.rows()) {
    throw std::invalid_argument(
        "attention forward_serve: segment rows do not cover the batch");
  }
  const Matrix qkv = qkv_.forward_keyed(x, keys);  // [T x 3d], one tile pass
  if (timing::active_trace() != nullptr) {
    // Exact ragged MAC count of the digital score/context arithmetic:
    // each attended row at global position p attends over p + 1 keys,
    // and QK^T plus P·V each cost ctx * d_model MACs per row.
    std::int64_t macs = 0;
    std::int64_t queries = 0;
    for (const AttnServeSeq& seq : seqs) {
      const std::int64_t q0 = first_query(seq);
      const std::int64_t p0 = seq.pos0 + q0;  // first attended position
      const std::int64_t n = seq.rows - q0;
      macs += 2 * d_model_ * (n * p0 + n * (n + 1) / 2);
      queries += n;
    }
    timing::TimingOp op;
    op.kind = timing::OpKind::kAttention;
    op.layer = scores_name_;
    op.rows = queries;
    op.k = d_model_;
    op.n = d_model_;
    op.macs = macs;
    op.chip = timing_chip_;
    timing::record(std::move(op));
  }
  // Grow each sequence's private cache by this step's rows in one serial
  // pass (a pool-pre-sized slab never reallocates here). Appends land at
  // local row (global - base): the shared base is never written, so a
  // request diverging from its leased prefix copies nothing and
  // clobbers nobody. The rows themselves are filled by the head items
  // below, each its own head's column slice.
  for (const AttnServeSeq& seq : seqs) {
    KvCache::BlockCache& c = *seq.cache;
    if (c.k.cols() != d_model_) {
      c.k = Matrix(0, d_model_);
      c.v = Matrix(0, d_model_);
    }
    c.k.resize_rows(seq.pos0 - seq.base_rows + seq.rows);
    c.v.resize_rows(seq.pos0 - seq.base_rows + seq.rows);
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  Matrix concat(last_only ? n_seqs : total, d_model_);
  // (sequence x head) fan-out: each item first copies its head's column
  // slice of ALL the sequence's new K/V rows into the cache, then writes
  // the head's column slice of its sequence's attended output rows —
  // both disjoint across items, and an item reads only its own head's
  // columns — with the same digital math and accumulation order as
  // forward() over the whole sequence, so any thread count, any batch
  // composition and attending only the last row produce identical rows
  // (a row's output reads the K/V history, never another query row).
  // Each item owns its own max_seq-long probs row, so the scratch grows
  // only with the item count, never with the history length.
  const std::size_t probs_len =
      static_cast<std::size_t>(n_seqs * n_heads_ * max_seq_);
  if (serve_probs_.size() < probs_len) serve_probs_.resize(probs_len);
  util::ThreadPool::global().parallel_for(
      n_seqs * n_heads_, [&](std::int64_t item) {
        const std::int64_t s = item / n_heads_;
        const std::int64_t h = item % n_heads_;
        const AttnServeSeq& seq = seqs[static_cast<std::size_t>(s)];
        const std::int64_t off = h * d_head_;
        const std::int64_t local0 = seq.pos0 - seq.base_rows;
        for (std::int64_t t = 0; t < seq.rows; ++t) {
          const auto row = qkv.row(r0[static_cast<std::size_t>(s)] + t);
          auto kr = seq.cache->k.row(local0 + t);
          auto vr = seq.cache->v.row(local0 + t);
          for (std::int64_t c = 0; c < d_head_; ++c) {
            kr[off + c] = row[d_model_ + off + c];
            vr[off + c] = row[2 * d_model_ + off + c];
          }
        }
        const Matrix& ks = seq.cache->k;
        const Matrix& vs = seq.cache->v;
        // Two-range history: global rows [0, br) come from the shared
        // base, the rest from the private cache at j - br. The j order,
        // math and accumulation are exactly the unshared loop's, so a
        // prefix hit is bit-identical to the cold run that would have
        // recomputed those rows (they ARE the cold run's rows).
        const std::int64_t br = seq.base_rows;
        const Matrix& bk = seq.base != nullptr ? seq.base->k : ks;
        const Matrix& bv = seq.base != nullptr ? seq.base->v : vs;
        float* const probs = serve_probs_.data() + item * max_seq_;
        const auto bias = rel_bias_.value.row(h);
        const std::int64_t q0 = first_query(seq);
        const std::int64_t out0 = last_only ? s : r0[static_cast<std::size_t>(s)];
        for (std::int64_t i = q0; i < seq.rows; ++i) {
          const std::int64_t gi = seq.pos0 + i;  // global position
          const auto qi = qkv.row(r0[static_cast<std::size_t>(s)] + i);
          float row_max = -1e30f;
          // Scores eight keys at a time. Each key keeps its own serial
          // `sc += q[c] * k[c]` chain in the same c order as the one-key
          // loop (the tail below), which the compiler turns into the same
          // in-order additions, so every score keeps its bits
          // (KvCache.BlockedScoresMatchOneKeyAtATimeReference). The eight
          // independent chains overlap instead of each key waiting on its
          // own ~4-cycle-per-step chain. Keys are looked up one by one,
          // so a block may straddle the base/private boundary.
          constexpr std::int64_t kKeys = 8;
          const float* const q = qi.data() + off;
          std::int64_t j = 0;
          for (; j + kKeys <= gi + 1; j += kKeys) {
            const float* kp[kKeys];
            for (std::int64_t l = 0; l < kKeys; ++l) {
              const std::int64_t jl = j + l;
              kp[l] = (jl < br ? bk.row(jl) : ks.row(jl - br)).data() + off;
            }
            float acc[kKeys] = {};
            for (std::int64_t c = 0; c < d_head_; ++c) {
              for (std::int64_t l = 0; l < kKeys; ++l) acc[l] += q[c] * kp[l][c];
            }
            for (std::int64_t l = 0; l < kKeys; ++l) {
              const float sc = acc[l] * scale + bias[gi - j - l];
              probs[j + l] = sc;
              row_max = std::max(row_max, sc);
            }
          }
          for (; j <= gi; ++j) {
            const auto kj = j < br ? bk.row(j) : ks.row(j - br);
            float sc = 0.0f;
            for (std::int64_t c = 0; c < d_head_; ++c) {
              sc += qi[off + c] * kj[off + c];
            }
            sc = sc * scale + bias[gi - j];
            probs[j] = sc;
            row_max = std::max(row_max, sc);
          }
          float denom = 0.0f;
          for (std::int64_t j = 0; j <= gi; ++j) {
            probs[j] = std::exp(probs[j] - row_max);
            denom += probs[j];
          }
          const float inv = 1.0f / denom;
          auto oi = concat.row(out0 + i - q0);
          for (std::int64_t j = 0; j <= gi; ++j) {
            const float p = probs[j] * inv;
            const auto vj = j < br ? bv.row(j) : vs.row(j - br);
            for (std::int64_t c = 0; c < d_head_; ++c) {
              oi[off + c] += p * vj[off + c];
            }
          }
        }
      });
  return out_proj_.forward_keyed(concat, last_only ? last_keys : keys);
}

Matrix CausalSelfAttention::backward(const Matrix& dy) {
  const std::int64_t t_len = dy.rows();
  if (qkv_cache_.rows() != t_len) {
    throw std::logic_error("attention backward: no matching forward cache");
  }
  Matrix dconcat = out_proj_.backward(dy);  // [T x d]
  Matrix dqkv(t_len, 3 * d_model_);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));
  for (std::int64_t h = 0; h < n_heads_; ++h) {
    const std::int64_t q_off = h * d_head_;
    const std::int64_t k_off = d_model_ + h * d_head_;
    const std::int64_t v_off = 2 * d_model_ + h * d_head_;
    const Matrix& probs = probs_cache_[static_cast<std::size_t>(h)];
    for (std::int64_t i = 0; i < t_len; ++i) {
      const auto doi = dconcat.row(i);
      const auto pi = probs.row(i);
      // dP_ij = dO_i . V_j ; dV_j += P_ij dO_i
      std::vector<float> dp(static_cast<std::size_t>(i) + 1, 0.0f);
      for (std::int64_t j = 0; j <= i; ++j) {
        const auto vj = qkv_cache_.row(j);
        auto dvj = dqkv.row(j);
        float acc = 0.0f;
        const float p = pi[j];
        for (std::int64_t c = 0; c < d_head_; ++c) {
          acc += doi[q_off + c] * vj[v_off + c];
          dvj[v_off + c] += p * doi[q_off + c];
        }
        dp[static_cast<std::size_t>(j)] = acc;
      }
      // Softmax backward: dS_ij = P_ij (dP_ij - sum_k P_ik dP_ik).
      float dot = 0.0f;
      for (std::int64_t j = 0; j <= i; ++j) dot += pi[j] * dp[static_cast<std::size_t>(j)];
      const auto qi = qkv_cache_.row(i);
      auto dqi = dqkv.row(i);
      auto dbias = rel_bias_.grad.row(h);
      for (std::int64_t j = 0; j <= i; ++j) {
        const float dscore = pi[j] * (dp[static_cast<std::size_t>(j)] - dot);
        dbias[i - j] += dscore;
        const float ds = dscore * scale;
        const auto kj = qkv_cache_.row(j);
        auto dkj = dqkv.row(j);
        for (std::int64_t c = 0; c < d_head_; ++c) {
          dqi[q_off + c] += ds * kj[k_off + c];
          dkj[k_off + c] += ds * qi[q_off + c];
        }
      }
    }
  }
  return qkv_.backward(dqkv);
}

void CausalSelfAttention::collect_params(ParamRefs& out) {
  qkv_.collect_params(out);
  out_proj_.collect_params(out);
  out.push_back(&rel_bias_);
}

void CausalSelfAttention::collect_linears(std::vector<Linear*>& out) {
  out.push_back(&qkv_);
  out.push_back(&out_proj_);
}

}  // namespace nora::nn
