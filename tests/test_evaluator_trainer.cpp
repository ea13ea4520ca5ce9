// Tests for the evaluator and the training loop.
#include <gtest/gtest.h>

#include "core/nora.hpp"
#include "eval/evaluator.hpp"
#include "train/trainer.hpp"

namespace nora {
namespace {

eval::SynthLambadaConfig tiny_task() {
  eval::SynthLambadaConfig t;
  t.seq_len = 16;
  t.n_pairs = 2;
  t.n_keys = 6;
  t.n_vals = 6;
  t.n_filler = 6;
  t.n_queries = 2;
  return t;
}

nn::TransformerConfig tiny_arch(const eval::SynthLambadaConfig& t) {
  nn::TransformerConfig cfg;
  cfg.vocab_size = t.vocab_size();
  cfg.max_seq = t.seq_len;
  cfg.d_model = 16;
  cfg.n_layers = 1;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  return cfg;
}

TEST(Evaluator, UntrainedModelIsNearChance) {
  const auto t = tiny_task();
  const eval::SynthLambada task(t);
  nn::TransformerLM model(tiny_arch(t));
  eval::EvalOptions eo;
  eo.n_examples = 120;
  const auto r = eval::evaluate(model, task, eo);
  EXPECT_EQ(r.n_examples, 120);
  // Untrained: far from solved, loss near uniform ln(V).
  EXPECT_LT(r.accuracy, 0.5);
  EXPECT_GT(r.avg_loss, 1.5);
}

TEST(Evaluator, DeterministicAcrossCalls) {
  const auto t = tiny_task();
  const eval::SynthLambada task(t);
  nn::TransformerLM model(tiny_arch(t));
  eval::EvalOptions eo;
  eo.n_examples = 32;
  const auto a = eval::evaluate(model, task, eo);
  const auto b = eval::evaluate(model, task, eo);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.avg_loss, b.avg_loss);
  // On a noisy analog deployment too: example i is scored on noise
  // stream i, so evaluating one deployment twice draws the same noise.
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::paper_table2();
  core::deploy_analog(model, task, opts);
  const auto c = eval::evaluate(model, task, eo);
  const auto d = eval::evaluate(model, task, eo);
  EXPECT_NE(c.avg_loss, a.avg_loss);  // the noise is really there
  EXPECT_EQ(c.accuracy, d.accuracy);
  EXPECT_EQ(c.avg_loss, d.avg_loss);
}

TEST(Evaluator, ZeroExamplesIsEmptyResult) {
  const auto t = tiny_task();
  const eval::SynthLambada task(t);
  nn::TransformerLM model(tiny_arch(t));
  eval::EvalOptions eo;
  eo.n_examples = 0;
  const auto r = eval::evaluate(model, task, eo);
  EXPECT_EQ(r.accuracy, 0.0);
  EXPECT_EQ(r.n_examples, 0);
}

TEST(Trainer, LossDecreasesAndAccuracyImproves) {
  const auto t = tiny_task();
  const eval::SynthLambada task(t);
  nn::TransformerLM model(tiny_arch(t));
  eval::EvalOptions eo;
  eo.n_examples = 64;
  const double acc_before = eval::evaluate(model, task, eo).accuracy;
  train::TrainConfig tc;
  tc.steps = 220;
  tc.batch_size = 8;
  tc.eval_every = 100;
  tc.eval_examples = 32;
  tc.target_accuracy = 0.0;  // run all steps
  tc.verbose = false;
  std::vector<double> losses;
  const auto report = train::train_lm(
      model, task, tc,
      [&](int, double loss, double) { losses.push_back(loss); });
  EXPECT_EQ(report.steps_run, 220);
  ASSERT_GE(losses.size(), 2u);
  EXPECT_LT(losses.back(), losses.front());
  EXPECT_GT(eval::evaluate(model, task, eo).accuracy, acc_before);
}

TEST(Trainer, EarlyStopOnTargetAccuracy) {
  const auto t = tiny_task();
  const eval::SynthLambada task(t);
  nn::TransformerLM model(tiny_arch(t));
  train::TrainConfig tc;
  tc.steps = 3000;
  tc.batch_size = 8;
  tc.eval_every = 50;
  tc.eval_examples = 48;
  tc.target_accuracy = 0.8;  // tiny copy-ish task reaches this quickly
  tc.verbose = false;
  const auto report = train::train_lm(model, task, tc);
  EXPECT_LT(report.steps_run, 3000);
  EXPECT_GE(report.final_accuracy, 0.8);
}

TEST(Trainer, DeterministicGivenSeeds) {
  const auto t = tiny_task();
  const eval::SynthLambada task(t);
  auto run = [&] {
    nn::TransformerLM model(tiny_arch(t));
    train::TrainConfig tc;
    tc.steps = 40;
    tc.batch_size = 4;
    tc.eval_every = 40;
    tc.eval_examples = 16;
    tc.target_accuracy = 0.0;
    tc.verbose = false;
    train::train_lm(model, task, tc);
    const auto ex = task.make_example("test", 0);
    return model.forward(ex.tokens);
  };
  const Matrix a = run();
  const Matrix b = run();
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]);
  }
}

}  // namespace
}  // namespace nora
