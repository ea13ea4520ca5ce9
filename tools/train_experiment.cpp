// Developer tool: train a SynthLambada model with fully CLI-overridable
// architecture / task / outlier parameters, to study convergence and the
// effect of planted outlier channels without touching the model zoo.
//
//   ./train_experiment --d=64 --layers=2 --heads=4 --steps=2000
//       --outlier_frac=0.08 --amp_lo=10 --amp_hi=18 --compensate=1
//
// (one command line, wrapped here for width)
#include <cstdio>

#include "model/families.hpp"
#include "nn/transformer.hpp"
#include "train/trainer.hpp"
#include "util/cli.hpp"

using namespace nora;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  eval::SynthLambadaConfig task_cfg;
  task_cfg.n_queries = static_cast<int>(cli.get_int("queries", 4));
  task_cfg.n_pairs = static_cast<int>(cli.get_int("pairs", 3));
  const eval::SynthLambada task(task_cfg);

  nn::TransformerConfig arch;
  arch.d_model = cli.get_int("d", 64);
  arch.n_layers = cli.get_int("layers", 2);
  arch.n_heads = cli.get_int("heads", 4);
  arch.d_ff = cli.get_int("ff", 4 * arch.d_model);
  arch.vocab_size = task_cfg.vocab_size();
  arch.max_seq = task_cfg.seq_len;
  arch.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  arch.norm_kind = cli.get_flag("rms") ? nn::NormKind::kRmsNorm
                                       : nn::NormKind::kLayerNorm;
  arch.mlp_kind = cli.get_flag("gated") ? nn::MlpKind::kSiluGated
                                        : nn::MlpKind::kGelu;
  model::OutlierSpec outliers;
  outliers.fraction = static_cast<float>(cli.get_double("outlier_frac", 0.0));
  outliers.amp_lo = static_cast<float>(cli.get_double("amp_lo", 1.0));
  outliers.amp_hi = static_cast<float>(cli.get_double("amp_hi", 1.0));
  outliers.seed = arch.seed;
  arch.norm_gain = model::planted_gains(arch.d_model, outliers);

  nn::TransformerLM model(arch);
  if (cli.get_flag("compensate", true)) {
    model::compensate_planted_gains(model);
  }
  train::TrainConfig tc;
  tc.steps = static_cast<int>(cli.get_int("steps", 2000));
  tc.batch_size = static_cast<int>(cli.get_int("batch", 16));
  tc.adam.lr = static_cast<float>(cli.get_double("lr", 3e-3));
  tc.eval_every = static_cast<int>(cli.get_int("eval_every", 100));
  tc.seed = arch.seed + 7;
  const auto report = train::train_lm(model, task, tc);
  std::printf("final: steps=%d loss=%.4f acc=%.3f\n", report.steps_run,
              report.final_loss, report.final_accuracy);
  return 0;
}
