#include "nn/block.hpp"

#include "tensor/ops.hpp"

namespace nora::nn {

TransformerBlock::TransformerBlock(const std::string& name, NormKind norm_kind,
                                   MlpKind mlp_kind, std::int64_t d_model,
                                   std::int64_t n_heads, std::int64_t d_ff,
                                   std::int64_t max_seq,
                                   std::vector<float> norm_gain, util::Rng& rng,
                                   float init_std)
    : norm1_(name + ".norm1", norm_kind, d_model, norm_gain),
      attn_(name + ".attn", d_model, n_heads, max_seq, rng, init_std),
      norm2_(name + ".norm2", norm_kind, d_model, std::move(norm_gain)),
      mlp_(name + ".mlp", mlp_kind, d_model, d_ff, rng, init_std) {}

Matrix TransformerBlock::forward(const Matrix& x) {
  Matrix h = ops::add(x, attn_.forward(norm1_.forward(x, /*training=*/true)));
  return ops::add(h, mlp_.forward(norm2_.forward(h, /*training=*/true)));
}

Matrix TransformerBlock::forward_serve(
    const Matrix& x, std::span<const AttnServeSeq> seqs,
    std::span<const cim::StreamKey> keys,
    std::span<const cim::StreamKey> last_keys) {
  // Residuals add in place into the branch output: a + x has the bits
  // of x + a, without a third matrix.
  Matrix h = attn_.forward_serve(norm1_.forward(x), seqs, keys, last_keys);
  if (last_keys.empty()) {
    ops::add_inplace(h, x);
  } else {
    // h row s is segment s's last row.
    std::int64_t end = 0;
    for (std::size_t s = 0; s < seqs.size(); ++s) {
      end += seqs[s].rows;
      const auto xr = x.row(end - 1);
      auto hr = h.row(static_cast<std::int64_t>(s));
      for (std::int64_t c = 0; c < h.cols(); ++c) hr[c] += xr[c];
    }
  }
  Matrix y = mlp_.forward_keyed(norm2_.forward(h),
                                last_keys.empty() ? keys : last_keys);
  ops::add_inplace(y, h);
  return y;
}

bool TransformerBlock::rows_independent_after_attention() {
  const Linear* gate = mlp_.gate();
  return attn_.out_proj().rows_independent() && mlp_.up().rows_independent() &&
         (gate == nullptr || gate->rows_independent()) &&
         mlp_.down().rows_independent();
}

Matrix TransformerBlock::backward(const Matrix& dy) {
  // Through the MLP residual branch.
  Matrix dh = norm2_.backward(mlp_.backward(dy));
  ops::add_inplace(dh, dy);
  // Through the attention residual branch.
  Matrix dx = norm1_.backward(attn_.backward(dh));
  ops::add_inplace(dx, dh);
  return dx;
}

void TransformerBlock::collect_params(ParamRefs& out) {
  norm1_.collect_params(out);
  attn_.collect_params(out);
  norm2_.collect_params(out);
  mlp_.collect_params(out);
}

void TransformerBlock::collect_linears(std::vector<Linear*>& out) {
  attn_.collect_linears(out);
  mlp_.collect_linears(out);
}

}  // namespace nora::nn
