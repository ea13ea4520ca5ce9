#include "nn/mlp.hpp"

#include <stdexcept>

#include "nn/activations.hpp"

namespace nora::nn {

Mlp::Mlp(const std::string& name, MlpKind kind, std::int64_t d_model,
         std::int64_t d_ff, util::Rng& rng, float init_std)
    : kind_(kind),
      up_(name + ".up", d_model, d_ff, rng, init_std),
      down_(name + ".down", d_ff, d_model, rng, init_std) {
  if (kind_ == MlpKind::kSiluGated) {
    gate_.emplace(name + ".gate", d_model, d_ff, rng, init_std);
  }
}

Matrix Mlp::forward(const Matrix& x) {
  up_cache_ = up_.forward(x);
  const Matrix& u = up_cache_;
  Matrix h(u.rows(), u.cols());
  if (kind_ == MlpKind::kGelu) {
    for (std::int64_t i = 0; i < u.size(); ++i) h.data()[i] = gelu(u.data()[i]);
  } else {
    gate_cache_ = gate_->forward(x);
    const Matrix& g = gate_cache_;
    for (std::int64_t i = 0; i < u.size(); ++i) {
      h.data()[i] = silu(g.data()[i]) * u.data()[i];
    }
  }
  return down_.forward(h);
}

Matrix Mlp::forward_keyed(const Matrix& x,
                          std::span<const cim::StreamKey> keys) {
  Matrix u = up_.forward_keyed(x, keys);
  Matrix h(u.rows(), u.cols());
  if (kind_ == MlpKind::kGelu) {
    for (std::int64_t i = 0; i < u.size(); ++i) h.data()[i] = gelu(u.data()[i]);
  } else {
    Matrix g = gate_->forward_keyed(x, keys);
    for (std::int64_t i = 0; i < u.size(); ++i) {
      h.data()[i] = silu(g.data()[i]) * u.data()[i];
    }
  }
  return down_.forward_keyed(h, keys);
}

Matrix Mlp::backward(const Matrix& dy) {
  Matrix dh = down_.backward(dy);
  if (kind_ == MlpKind::kGelu) {
    if (!up_cache_.same_shape(dh)) throw std::logic_error("Mlp backward: no cache");
    for (std::int64_t i = 0; i < dh.size(); ++i) {
      dh.data()[i] *= gelu_grad(up_cache_.data()[i]);
    }
    return up_.backward(dh);
  }
  if (!up_cache_.same_shape(dh)) throw std::logic_error("Mlp backward: no cache");
  Matrix dg(dh.rows(), dh.cols());
  Matrix du(dh.rows(), dh.cols());
  for (std::int64_t i = 0; i < dh.size(); ++i) {
    const float g = gate_cache_.data()[i];
    const float u = up_cache_.data()[i];
    du.data()[i] = dh.data()[i] * silu(g);
    dg.data()[i] = dh.data()[i] * u * silu_grad(g);
  }
  Matrix dx = up_.backward(du);
  Matrix dx_gate = gate_->backward(dg);
  for (std::int64_t i = 0; i < dx.size(); ++i) dx.data()[i] += dx_gate.data()[i];
  return dx;
}

void Mlp::collect_params(ParamRefs& out) {
  up_.collect_params(out);
  if (gate_) gate_->collect_params(out);
  down_.collect_params(out);
}

void Mlp::collect_linears(std::vector<Linear*>& out) {
  out.push_back(&up_);
  if (gate_) out.push_back(&*gate_);
  out.push_back(&down_);
}

}  // namespace nora::nn
