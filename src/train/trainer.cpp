#include "train/trainer.hpp"

#include <cmath>
#include <cstdio>

#include "eval/evaluator.hpp"
#include "tensor/ops.hpp"
#include "train/loss.hpp"

namespace nora::train {

namespace {
float schedule_lr(const TrainConfig& cfg, int step) {
  const float base = cfg.adam.lr;
  const int warmup = std::max(1, static_cast<int>(cfg.steps * cfg.warmup_frac));
  if (step < warmup) return base * static_cast<float>(step + 1) / warmup;
  const float progress =
      static_cast<float>(step - warmup) / std::max(1, cfg.steps - warmup);
  // Cosine decay to 10% of the base rate.
  return base * (0.1f + 0.9f * 0.5f * (1.0f + std::cos(progress * 3.14159265f)));
}
}  // namespace

TrainReport train_lm(nn::TransformerLM& model, const eval::SynthLambada& task,
                     const TrainConfig& cfg, const ProgressFn& progress) {
  Adam opt(model.collect_params(), cfg.adam);
  util::Rng rng(cfg.seed);
  TrainReport report;
  double running_loss = 0.0;
  int running_count = 0;
  for (int step = 0; step < cfg.steps; ++step) {
    opt.set_lr(schedule_lr(cfg, step));
    model.zero_grads();
    double batch_loss = 0.0;
    for (int b = 0; b < cfg.batch_size; ++b) {
      const auto ex = task.make_example("train", rng.next_u64() % (1ull << 48));
      const Matrix logits = model.forward(ex.tokens);
      LossResult res = softmax_cross_entropy(logits, ex.targets, ex.weights);
      // Average the gradient over the batch.
      ops::scale_inplace(res.dlogits, 1.0f / cfg.batch_size);
      model.backward(res.dlogits);
      batch_loss += res.loss;
    }
    batch_loss /= cfg.batch_size;
    running_loss += batch_loss;
    ++running_count;
    opt.step();
    report.steps_run = step + 1;
    const bool eval_now =
        cfg.eval_every > 0 &&
        ((step + 1) % cfg.eval_every == 0 || step + 1 == cfg.steps);
    if (eval_now) {
      eval::EvalOptions eo;
      eo.split = "valid";
      eo.n_examples = cfg.eval_examples;
      const auto ev = eval::evaluate(model, task, eo);
      report.final_accuracy = ev.accuracy;
      report.final_loss = running_loss / running_count;
      running_loss = 0.0;
      running_count = 0;
      if (progress) progress(step + 1, report.final_loss, ev.accuracy);
      if (cfg.verbose) {
        std::printf("  [train] step %4d  loss %.4f  valid-acc %.3f\n", step + 1,
                    report.final_loss, ev.accuracy);
        std::fflush(stdout);
      }
      if (cfg.target_accuracy > 0.0 && ev.accuracy >= cfg.target_accuracy) break;
    }
  }
  return report;
}

}  // namespace nora::train
