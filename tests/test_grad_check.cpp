// Finite-difference gradient checks for every trainable module, end to
// end through the full TransformerLM. A wrong backward pass would
// silently cripple the synthetic-LLM training substrate, so this is the
// most load-bearing test in the training stack.
#include <gtest/gtest.h>

#include <cmath>

#include "eval/synthlambada.hpp"
#include "nn/transformer.hpp"
#include "train/loss.hpp"

namespace nora {
namespace {

// Loss of the model on a fixed example (pure function of parameters).
double model_loss(nn::TransformerLM& model, const eval::Example& ex) {
  const Matrix logits = model.forward(ex.tokens);
  return train::softmax_cross_entropy(logits, ex.targets, ex.weights).loss;
}

TEST(GradCheck, FullModelMatchesFiniteDifferences) {
  eval::SynthLambadaConfig task_cfg;
  task_cfg.seq_len = 12;
  task_cfg.n_pairs = 2;
  task_cfg.n_keys = 4;
  task_cfg.n_vals = 4;
  task_cfg.n_filler = 4;
  const eval::SynthLambada task(task_cfg);
  const auto ex = task.make_example("train", 3);

  nn::TransformerConfig cfg;
  cfg.vocab_size = task_cfg.vocab_size();
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 24;
  cfg.max_seq = task_cfg.seq_len;
  cfg.norm_gain = std::vector<float>(16, 1.0f);
  cfg.norm_gain[3] = 5.0f;  // exercise the planted-gain path too
  for (const auto mlp : {nn::MlpKind::kGelu, nn::MlpKind::kSiluGated}) {
    cfg.mlp_kind = mlp;
    cfg.norm_kind = mlp == nn::MlpKind::kGelu ? nn::NormKind::kLayerNorm
                                              : nn::NormKind::kRmsNorm;
    nn::TransformerLM model(cfg);

    // Analytic gradients.
    model.zero_grads();
    const Matrix logits = model.forward(ex.tokens);
    const auto res = train::softmax_cross_entropy(logits, ex.targets, ex.weights);
    model.backward(res.dlogits);

    // Spot-check a handful of entries of every parameter tensor.
    const double eps = 1e-3;
    int checked = 0;
    for (nn::Param* p : model.collect_params()) {
      if (!p->trainable) continue;
      const std::int64_t stride = std::max<std::int64_t>(1, p->value.size() / 5);
      for (std::int64_t i = 0; i < p->value.size(); i += stride) {
        float& w = p->value.data()[i];
        const float orig = w;
        w = orig + static_cast<float>(eps);
        const double lp = model_loss(model, ex);
        w = orig - static_cast<float>(eps);
        const double lm = model_loss(model, ex);
        w = orig;
        const double fd = (lp - lm) / (2 * eps);
        const double an = p->grad.data()[i];
        EXPECT_NEAR(an, fd, 2e-2 + 0.05 * std::fabs(fd))
            << "param " << p->name << " index " << i;
        ++checked;
      }
    }
    EXPECT_GT(checked, 50);
  }
}

}  // namespace
}  // namespace nora
