#include "nn/transformer.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace nora::nn {

std::int64_t TransformerConfig::param_count() const {
  const std::int64_t gate = mlp_kind == MlpKind::kSiluGated ? d_model * d_ff : 0;
  const std::int64_t per_block = d_model * 3 * d_model + 3 * d_model   // qkv
                                 + d_model * d_model + d_model         // out
                                 + n_heads * max_seq                   // rel bias
                                 + 2 * d_model * d_ff + gate + d_ff + d_model  // mlp
                                 + 4 * d_model;                        // norms
  return vocab_size * d_model + max_seq * d_model + n_layers * per_block +
         2 * d_model + d_model * vocab_size + vocab_size;
}

namespace {
util::Rng make_init_rng(const TransformerConfig& cfg) {
  return util::Rng(util::derive_seed(cfg.seed, "init"));
}

/// Greedy argmax over the last row of a logits matrix.
int argmax_last(const Matrix& logits) {
  const auto last = logits.row(logits.rows() - 1);
  int best = 0;
  for (std::int64_t v = 1; v < logits.cols(); ++v) {
    if (last[v] > last[best]) best = static_cast<int>(v);
  }
  return best;
}
}  // namespace

void TransformerLM::init_cache_blocks(KvCache& cache) const {
  cache.blocks.resize(blocks_.size());
  // Reserve each layer's K/V at the slab capacity (serve) or the model
  // horizon, so the per-step in-place appends never touch the allocator.
  const std::int64_t horizon =
      cache.capacity > 0 ? std::min(cache.capacity, cfg_.max_seq)
                         : cfg_.max_seq;
  for (KvCache::BlockCache& b : cache.blocks) {
    b.k = Matrix(0, cfg_.d_model);
    b.v = Matrix(0, cfg_.d_model);
    b.k.reserve_rows(horizon);
    b.v.reserve_rows(horizon);
  }
}

TransformerLM::TransformerLM(TransformerConfig cfg)
    : cfg_(std::move(cfg)),
      final_norm_("final_norm", cfg_.norm_kind, cfg_.d_model),
      lm_head_([&] {
        util::Rng rng(util::derive_seed(cfg_.seed, "head"));
        return Linear("lm_head", cfg_.d_model, cfg_.vocab_size, rng, cfg_.init_std);
      }()) {
  if (cfg_.d_model % cfg_.n_heads != 0) {
    throw std::invalid_argument("TransformerLM: d_model % n_heads != 0");
  }
  if (!cfg_.norm_gain.empty() &&
      static_cast<std::int64_t>(cfg_.norm_gain.size()) != cfg_.d_model) {
    throw std::invalid_argument("TransformerLM: norm_gain length mismatch");
  }
  util::Rng rng = make_init_rng(cfg_);
  Matrix te(cfg_.vocab_size, cfg_.d_model);
  te.fill_gaussian(rng, cfg_.init_std);
  tok_emb_ = Param("tok_emb", std::move(te));
  if (cfg_.tie_head_init) {
    lm_head_.weight().value = tok_emb_.value.transposed();
  }
  Matrix pe(cfg_.max_seq, cfg_.d_model);
  pe.fill_gaussian(rng, cfg_.init_std);
  pos_emb_ = Param("pos_emb", std::move(pe));
  blocks_.reserve(static_cast<std::size_t>(cfg_.n_layers));
  for (std::int64_t l = 0; l < cfg_.n_layers; ++l) {
    blocks_.emplace_back("blk" + std::to_string(l), cfg_.norm_kind, cfg_.mlp_kind,
                         cfg_.d_model, cfg_.n_heads, cfg_.d_ff, cfg_.max_seq,
                         cfg_.norm_gain, rng, cfg_.init_std);
  }
}

Matrix TransformerLM::forward(std::span<const int> tokens) {
  const std::int64_t t_len = static_cast<std::int64_t>(tokens.size());
  if (t_len == 0 || t_len > cfg_.max_seq) {
    throw std::invalid_argument("TransformerLM::forward: bad sequence length");
  }
  Matrix x(t_len, cfg_.d_model);
  for (std::int64_t t = 0; t < t_len; ++t) {
    const int id = tokens[static_cast<std::size_t>(t)];
    if (id < 0 || id >= cfg_.vocab_size) {
      throw std::invalid_argument("TransformerLM::forward: token id out of range");
    }
    auto xr = x.row(t);
    const auto er = tok_emb_.value.row(id);
    const auto pr = pos_emb_.value.row(t);
    for (std::int64_t c = 0; c < cfg_.d_model; ++c) xr[c] = er[c] + pr[c];
  }
  tokens_cache_.assign(tokens.begin(), tokens.end());
  for (auto& block : blocks_) x = block.forward(x);
  x = final_norm_.forward(x, /*training=*/true);
  return lm_head_.forward(x);
}

void TransformerLM::backward(const Matrix& dlogits) {
  if (tokens_cache_.empty() ||
      static_cast<std::int64_t>(tokens_cache_.size()) != dlogits.rows()) {
    throw std::logic_error("TransformerLM::backward: no matching forward");
  }
  Matrix dx = final_norm_.backward(lm_head_.backward(dlogits));
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    dx = it->backward(dx);
  }
  for (std::int64_t t = 0; t < dx.rows(); ++t) {
    const int id = tokens_cache_[static_cast<std::size_t>(t)];
    auto ge = tok_emb_.grad.row(id);
    auto gp = pos_emb_.grad.row(t);
    const auto dr = dx.row(t);
    for (std::int64_t c = 0; c < cfg_.d_model; ++c) {
      ge[c] += dr[c];
      gp[c] += dr[c];
    }
  }
}

Matrix TransformerLM::forward_serve(std::span<const ServeSegment> segments,
                                   LogitRows logit_rows) {
  // Validate every segment before touching any cache, so a bad request
  // cannot leave the batch half-applied.
  std::int64_t total = 0;
  for (const ServeSegment& seg : segments) {
    if (seg.cache == nullptr || seg.tokens.empty()) {
      throw std::invalid_argument("forward_serve: bad segment");
    }
    if (seg.base_len < 0 || (seg.base_len > 0) != (seg.base != nullptr)) {
      throw std::invalid_argument("forward_serve: bad prefix base");
    }
    if (seg.base != nullptr &&
        (seg.base->length < seg.base_len ||
         seg.base->blocks.size() != blocks_.size())) {
      throw std::invalid_argument("forward_serve: prefix base out of sync");
    }
    const std::int64_t t_new = static_cast<std::int64_t>(seg.tokens.size());
    // Global position: shared prefix rows + the private cache's rows.
    const std::int64_t pos0 = seg.base_len + seg.cache->length;
    if (pos0 + t_new > cfg_.max_seq) {
      throw KvCacheOverflow(pos0, t_new, cfg_.max_seq, "model max_seq");
    }
    // The capacity guard is on the PRIVATE slab: that is what the pool
    // leased (the shared rows are budgeted with their own entry).
    if (seg.cache->capacity > 0 &&
        seg.cache->length + t_new > seg.cache->capacity) {
      throw KvCacheOverflow(seg.cache->length, t_new, seg.cache->capacity,
                            "cache capacity");
    }
    if (seg.cache->blocks.empty()) {
      init_cache_blocks(*seg.cache);
    } else if (seg.cache->blocks.size() != blocks_.size()) {
      throw std::invalid_argument("forward_serve: cache from another model");
    }
    for (const int id : seg.tokens) {
      if (id < 0 || id >= cfg_.vocab_size) {
        throw std::invalid_argument("forward_serve: token id out of range");
      }
    }
    total += t_new;
  }
  if (total == 0) {
    throw std::invalid_argument("forward_serve: empty batch");
  }
  // Embeddings + per-row stream keys (request stream, request-local
  // position): the keys make every analog tile pass independent of the
  // batch composition.
  Matrix x(total, cfg_.d_model);
  std::vector<cim::StreamKey>& keys = serve_keys_;
  keys.assign(static_cast<std::size_t>(total), cim::StreamKey{});
  std::vector<AttnServeSeq>& seqs = serve_seqs_;
  seqs.assign(segments.size(), AttnServeSeq{});
  std::int64_t r = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const ServeSegment& seg = segments[s];
    // Positions and keys are GLOBAL (prefix included), so the rows this
    // segment computes are bit-identical to the cold run that would
    // have recomputed the shared prefix itself.
    const std::int64_t pos0 = seg.base_len + seg.cache->length;
    for (std::size_t t = 0; t < seg.tokens.size(); ++t) {
      const std::int64_t pos = pos0 + static_cast<std::int64_t>(t);
      auto xr = x.row(r);
      const auto er = tok_emb_.value.row(seg.tokens[t]);
      const auto pr = pos_emb_.value.row(pos);
      for (std::int64_t c = 0; c < cfg_.d_model; ++c) xr[c] = er[c] + pr[c];
      keys[static_cast<std::size_t>(r)] = {seg.stream,
                                           static_cast<std::uint64_t>(pos)};
      ++r;
    }
    seqs[s] = {nullptr, nullptr, seg.base_len, pos0,
               static_cast<std::int64_t>(seg.tokens.size())};
  }
  // Last-row logits: when some segment has several rows, only each
  // segment's last row runs past the last block's K/V append (`prune`),
  // provided no analog layer from there on couples rows. With one row
  // per segment (every decode step) the selection is the identity and
  // nothing here runs.
  const std::int64_t n_segs = static_cast<std::int64_t>(segments.size());
  const bool select =
      logit_rows == LogitRows::kLastPerSegment && total > n_segs;
  std::vector<cim::StreamKey>& last_keys = serve_last_keys_;
  last_keys.clear();
  if (select) {
    std::int64_t end = 0;
    for (const AttnServeSeq& seq : seqs) {
      end += seq.rows;
      last_keys.push_back(keys[static_cast<std::size_t>(end - 1)]);
    }
  }
  const bool prune = select && !blocks_.empty() &&
                     blocks_.back().rows_independent_after_attention() &&
                     lm_head_.rows_independent();
  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    for (std::size_t s = 0; s < segments.size(); ++s) {
      seqs[s].cache = &segments[s].cache->blocks[l];
      seqs[s].base = segments[s].base != nullptr
                         ? &segments[s].base->blocks[l]
                         : nullptr;
    }
    const bool last_block = l + 1 == blocks_.size();
    x = blocks_[l].forward_serve(
        x, seqs, keys,
        prune && last_block ? std::span<const cim::StreamKey>(last_keys)
                            : std::span<const cim::StreamKey>());
  }
  for (const ServeSegment& seg : segments) {
    seg.cache->length += static_cast<std::int64_t>(seg.tokens.size());
  }
  x = final_norm_.forward(x);
  Matrix logits = lm_head_.forward_keyed(x, prune ? last_keys : keys);
  if (!select || prune) return logits;
  Matrix last(n_segs, logits.cols());
  std::int64_t end = 0;
  for (std::int64_t s = 0; s < n_segs; ++s) {
    end += seqs[static_cast<std::size_t>(s)].rows;
    const auto src = logits.row(end - 1);
    std::copy(src.begin(), src.end(), last.row(s).begin());
  }
  return last;
}

Matrix TransformerLM::infer(std::span<const int> tokens, std::uint64_t stream) {
  KvCache cache;
  const ServeSegment seg{tokens, &cache, stream};
  return forward_serve({&seg, 1});
}

std::vector<int> TransformerLM::generate(std::span<const int> prompt,
                                         int max_new_tokens) {
  if (prompt.empty()) throw std::invalid_argument("generate: empty prompt");
  // One request on the serving path: a single segment on the default
  // stream, prefilled once, then fed back one greedy token at a time.
  KvCache cache;
  ServeSegment seg;
  seg.tokens = prompt;
  seg.cache = &cache;
  std::vector<int> out;
  for (;;) {
    const Matrix logits = forward_serve({&seg, 1}, LogitRows::kLastPerSegment);
    if (static_cast<int>(out.size()) >= max_new_tokens ||
        cache.length >= cfg_.max_seq) {
      break;
    }
    out.push_back(argmax_last(logits));
    seg.tokens = {&out.back(), 1};
  }
  return out;
}

ParamRefs TransformerLM::collect_params() {
  ParamRefs out;
  out.push_back(&tok_emb_);
  out.push_back(&pos_emb_);
  for (auto& block : blocks_) block.collect_params(out);
  final_norm_.collect_params(out);
  lm_head_.collect_params(out);
  return out;
}

void TransformerLM::zero_grads() {
  for (Param* p : collect_params()) p->zero_grad();
}

std::vector<Linear*> TransformerLM::linear_layers() {
  std::vector<Linear*> out;
  for (auto& block : blocks_) block.collect_linears(out);
  out.push_back(&lm_head_);
  return out;
}

bool TransformerLM::is_analog() const {
  for (auto* lin : const_cast<TransformerLM*>(this)->linear_layers()) {
    if (lin->is_analog()) return true;
  }
  return false;
}

bool TransformerLM::rows_independent() {
  for (TransformerBlock& block : blocks_) {
    if (!block.attention().qkv().rows_independent() ||
        !block.rows_independent_after_attention()) {
      return false;
    }
  }
  return lm_head_.rows_independent();
}

void TransformerLM::to_digital() {
  for (auto* lin : linear_layers()) lin->to_digital();
}

void TransformerLM::set_digital_bypass(bool on) {
  for (auto* lin : linear_layers()) lin->set_digital_bypass(on);
}

}  // namespace nora::nn
