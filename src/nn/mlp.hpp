// Feed-forward blocks: plain GELU MLP (OPT family) and SiLU-gated MLP
// (LLaMA / Mistral family). All projections are nn::Linear and thus
// analog-mappable.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "nn/linear.hpp"
#include "tensor/matrix.hpp"

namespace nora::nn {

enum class MlpKind { kGelu, kSiluGated };

class Mlp {
 public:
  Mlp(const std::string& name, MlpKind kind, std::int64_t d_model,
      std::int64_t d_ff, util::Rng& rng, float init_std);

  MlpKind kind() const { return kind_; }

  /// Training forward (caches the pre-activations for backward).
  Matrix forward(const Matrix& x);
  /// Inference forward with per-row noise-stream keys (serving path);
  /// activations are elementwise, so only the projections care.
  Matrix forward_keyed(const Matrix& x, std::span<const cim::StreamKey> keys);
  Matrix backward(const Matrix& dy);

  Linear& up() { return up_; }
  Linear* gate() { return gate_ ? &*gate_ : nullptr; }
  Linear& down() { return down_; }

  void collect_params(ParamRefs& out);
  void collect_linears(std::vector<Linear*>& out);

 private:
  MlpKind kind_;
  Linear up_;                   // [d, ff] (GELU path or gated "up")
  std::optional<Linear> gate_;  // [d, ff] (gated family only)
  Linear down_;                 // [ff, d]
  Matrix up_cache_;             // pre-activation of up_
  Matrix gate_cache_;           // pre-activation of gate_
};

}  // namespace nora::nn
