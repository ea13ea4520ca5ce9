#include "nn/mlp.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/activations.hpp"
#include "util/thread_pool.hpp"

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

namespace {

/// Elements per activation work item: ~5 µs of glibc tanhf. Small
/// enough that a worker which wakes late holds the join for one short
/// chunk at most, while the caller keeps claiming the rest.
constexpr std::int64_t kActChunk = 128;

/// h = gelu(u), or silu(g) * u for the gated family (g is unread for
/// kGelu), fanned out in element chunks over the global pool. Each
/// element's expression is the same however the elements are split, so
/// the result is bit-identical at any pool width; at width 1, or for a
/// single row, it runs inline with no dispatch.
Matrix activate(MlpKind kind, const Matrix& u, const Matrix& g) {
  Matrix h(u.rows(), u.cols());
  const std::int64_t size = u.size();
  const auto chunk = [&](std::int64_t i) {
    const std::int64_t e1 = std::min(size, (i + 1) * kActChunk);
    const float* ud = u.data();
    float* hd = h.data();
    if (kind == MlpKind::kGelu) {
      for (std::int64_t e = i * kActChunk; e < e1; ++e) hd[e] = gelu(ud[e]);
    } else {
      const float* gd = g.data();
      for (std::int64_t e = i * kActChunk; e < e1; ++e) {
        hd[e] = silu(gd[e]) * ud[e];
      }
    }
  };
  const std::int64_t n_chunks = (size + kActChunk - 1) / kActChunk;
  util::ThreadPool& pool = util::ThreadPool::global();
  if (pool.threads() > 1 && u.rows() > 1) {
    pool.parallel_for(n_chunks, chunk);
  } else {
    for (std::int64_t i = 0; i < n_chunks; ++i) chunk(i);
  }
  return h;
}

}  // namespace

Matrix Mlp::forward(const Matrix& x) {
  up_cache_ = up_.forward(x);
  if (gate_) gate_cache_ = gate_->forward(x);
  return down_.forward(activate(kind_, up_cache_, gate_cache_));
}

Matrix Mlp::forward_keyed(const Matrix& x,
                          std::span<const cim::StreamKey> keys) {
  const Matrix u = up_.forward_keyed(x, keys);
  const Matrix g = gate_ ? gate_->forward_keyed(x, keys) : Matrix();
  return down_.forward_keyed(activate(kind_, u, g), keys);
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
