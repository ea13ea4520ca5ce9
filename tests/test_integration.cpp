// End-to-end integration test: train a micro LLM with planted outlier
// channels, deploy it on the simulated analog hardware at the paper's
// Table II operating point, and verify the paper's headline ordering:
//
//   digital fp32  >=  NORA analog  >>  naive analog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/nora.hpp"
#include "eval/evaluator.hpp"
#include "model/zoo.hpp"
#include "serve/scheduler.hpp"
#include "train/trainer.hpp"

namespace nora {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static eval::SynthLambadaConfig task_cfg() {
    eval::SynthLambadaConfig t;
    t.n_queries = 4;
    return t;
  }

  // Train once for the whole suite (a few seconds).
  static nn::TransformerLM* trained_model() {
    static std::unique_ptr<nn::TransformerLM> model = [] {
      nn::TransformerConfig arch;
      const auto t = task_cfg();
      arch.vocab_size = t.vocab_size();
      arch.max_seq = t.seq_len;
      arch.d_model = 48;
      arch.n_layers = 2;
      arch.n_heads = 4;
      arch.d_ff = 96;
      arch.seed = 11;
      model::OutlierSpec outliers{0.08f, 22.0f, 38.0f, 11};
      arch.norm_gain = model::planted_gains(arch.d_model, outliers);
      auto m = std::make_unique<nn::TransformerLM>(arch);
      model::compensate_planted_gains(*m);
      train::TrainConfig tc;
      tc.steps = 1200;
      tc.eval_every = 50;
      tc.target_accuracy = 0.95;
      tc.verbose = false;
      train::train_lm(*m, eval::SynthLambada(task_cfg()), tc);
      return m;
    }();
    return model.get();
  }

  static eval::SynthLambada eval_task() {
    eval::SynthLambadaConfig t = task_cfg();
    t.n_queries = 1;
    return eval::SynthLambada(t);
  }

  static double eval_accuracy(nn::TransformerLM& m) {
    eval::EvalOptions eo;
    eo.n_examples = 96;
    return eval::evaluate(m, eval_task(), eo).accuracy;
  }

  /// The trained model with max_seq one longer. A scheduler admits only
  /// prompts shorter than max_seq, and an evaluation example fills the
  /// trained model's whole context. Positions and bias offsets below the
  /// old max_seq read the copied parameters, so the twin computes the
  /// trained model's function on every example.
  static nn::TransformerLM* serving_twin() {
    static std::unique_ptr<nn::TransformerLM> twin = [] {
      nn::TransformerLM& src = *trained_model();
      nn::TransformerConfig arch = src.config();
      ++arch.max_seq;
      auto m = std::make_unique<nn::TransformerLM>(arch);
      const nn::ParamRefs from = src.collect_params();
      const nn::ParamRefs to = m->collect_params();
      for (std::size_t i = 0; i < from.size(); ++i) {
        const Matrix& a = from[i]->value;
        Matrix& b = to[i]->value;
        for (std::int64_t r = 0; r < a.rows(); ++r) {
          for (std::int64_t c = 0; c < a.cols(); ++c) b.at(r, c) = a.at(r, c);
        }
      }
      return m;
    }();
    return twin.get();
  }

  /// Accuracy over the same 96 examples as eval_accuracy, scored on the
  /// serving path: each example's tokens are one request's prompt, and
  /// its greedy first token is the prediction.
  static double serve_accuracy(nn::TransformerLM& m) {
    const eval::SynthLambada task = eval_task();
    serve::Scheduler sched(m);
    std::vector<std::int64_t> ids;
    std::vector<int> answers;
    for (int i = 0; i < 96; ++i) {
      const eval::Example ex = task.make_example(
          eval::EvalOptions().split, static_cast<std::uint64_t>(i));
      serve::RequestParams p;
      p.prompt = ex.tokens;
      p.max_new_tokens = 1;
      ids.push_back(sched.submit(std::move(p)));
      answers.push_back(ex.answer);
    }
    sched.run_until_idle();
    int correct = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const serve::RequestRecord r = sched.request(ids[i]);
      EXPECT_EQ(r.state, serve::RequestState::kFinished) << "example " << i;
      correct += r.tokens.size() == 1 && r.tokens[0] == answers[i];
    }
    return static_cast<double>(correct) / 96.0;
  }
};

TEST_F(IntegrationTest, TrainingSolvesTheTask) {
  EXPECT_GE(eval_accuracy(*trained_model()), 0.9);
}

TEST_F(IntegrationTest, HeadlineOrderingDigitalGeNoraGtNaive) {
  nn::TransformerLM& model = *trained_model();
  model.to_digital();
  const double fp = eval_accuracy(model);

  const eval::SynthLambada task(task_cfg());
  core::DeployOptions naive;
  naive.tile = cim::TileConfig::paper_table2();
  naive.nora.enabled = false;
  core::deploy_analog(model, task, naive);
  const double acc_naive = eval_accuracy(model);

  model.to_digital();
  core::DeployOptions nora;
  nora.tile = cim::TileConfig::paper_table2();
  nora.nora.enabled = true;
  core::deploy_analog(model, task, nora);
  const double acc_nora = eval_accuracy(model);
  model.to_digital();

  // The paper's headline: naive deployment is catastrophic, NORA is
  // near-lossless (Fig. 5a).
  EXPECT_LT(acc_naive, fp - 0.10);
  EXPECT_GE(acc_nora, fp - 0.05);
  EXPECT_GT(acc_nora, acc_naive + 0.10);
}

// The same headline, scored on the code path that serves traffic: the
// scheduler's batched, KV-cached forward with per-request noise streams.
TEST_F(IntegrationTest, HeadlineOrderingHoldsOnServePath) {
  nn::TransformerLM& model = *serving_twin();
  model.to_digital();
  const double fp = serve_accuracy(model);
  EXPECT_EQ(fp, eval_accuracy(model));
  EXPECT_EQ(fp, eval_accuracy(*trained_model()));

  const eval::SynthLambada task(task_cfg());
  core::DeployOptions naive;
  naive.tile = cim::TileConfig::paper_table2();
  naive.nora.enabled = false;
  core::deploy_analog(model, task, naive);
  const double acc_naive = serve_accuracy(model);

  model.to_digital();
  core::DeployOptions nora;
  nora.tile = cim::TileConfig::paper_table2();
  nora.nora.enabled = true;
  core::deploy_analog(model, task, nora);
  const double acc_nora = serve_accuracy(model);
  model.to_digital();

  EXPECT_LT(acc_naive, fp - 0.10);
  EXPECT_GE(acc_nora, fp - 0.05);
  EXPECT_GT(acc_nora, acc_naive + 0.10);
}

// Evaluation scores the serving path itself. With Table II tiles, naive
// and NORA, the logits row of example i is bit for bit what a scheduler
// records as the first-token logits of a request with that example as
// its prompt on stream i (a request cannot ask for stream 0, so example
// 0 is checked against a direct single-segment forward_serve), and
// evaluate() reports exactly the accuracy and loss of those rows.
TEST_F(IntegrationTest, EvalEqualsServe) {
  constexpr int kExamples = 24;
  nn::TransformerLM& model = *serving_twin();
  const eval::SynthLambada task = eval_task();
  const std::string split = eval::EvalOptions().split;
  for (const bool nora_on : {false, true}) {
    model.to_digital();
    core::DeployOptions opts;
    opts.tile = cim::TileConfig::paper_table2();
    opts.nora.enabled = nora_on;
    core::deploy_analog(model, eval::SynthLambada(task_cfg()), opts);
    serve::SchedulerConfig sc;
    sc.record_logits = true;
    serve::Scheduler sched(model, sc);
    std::vector<std::int64_t> ids(kExamples, -1);
    for (int i = 1; i < kExamples; ++i) {
      serve::RequestParams p;
      p.prompt = task.make_example(split, static_cast<std::uint64_t>(i)).tokens;
      p.max_new_tokens = 1;
      p.stream_seed = static_cast<std::uint64_t>(i);
      ids[static_cast<std::size_t>(i)] = sched.submit(std::move(p));
    }
    sched.run_until_idle();
    int correct = 0;
    double loss = 0.0;
    for (int i = 0; i < kExamples; ++i) {
      const std::string where =
          "nora=" + std::to_string(nora_on) + " example " + std::to_string(i);
      const eval::Example ex =
          task.make_example(split, static_cast<std::uint64_t>(i));
      std::vector<float> served;
      if (i == 0) {
        nn::KvCache cache;
        nn::TransformerLM::ServeSegment seg;
        seg.tokens = ex.tokens;
        seg.cache = &cache;
        seg.stream = 0;
        const Matrix logits = model.forward_serve({&seg, 1});
        const auto last = logits.row(logits.rows() - 1);
        served.assign(last.begin(), last.end());
      } else {
        const serve::RequestRecord r =
            sched.request(ids[static_cast<std::size_t>(i)]);
        ASSERT_EQ(r.logits.size(), 1u) << where;
        served = r.logits[0];
      }
      const Matrix scored = model.infer(ex.tokens, static_cast<std::uint64_t>(i));
      const auto last = scored.row(scored.rows() - 1);
      ASSERT_EQ(served.size(), last.size()) << where;
      EXPECT_EQ(std::memcmp(served.data(), last.data(),
                            sizeof(float) * last.size()),
                0)
          << where;
      // evaluate()'s scoring rule, applied to the served row.
      int best = 0;
      float row_max = served[0];
      for (std::size_t v = 1; v < served.size(); ++v) {
        if (served[v] > served[static_cast<std::size_t>(best)]) {
          best = static_cast<int>(v);
        }
        row_max = std::max(row_max, served[v]);
      }
      correct += best == ex.answer;
      double denom = 0.0;
      for (const float v : served) denom += std::exp(double(v) - row_max);
      loss += -(double(served[static_cast<std::size_t>(ex.answer)]) - row_max -
                std::log(denom));
    }
    eval::EvalOptions eo;
    eo.n_examples = kExamples;
    const eval::EvalResult r = eval::evaluate(model, task, eo);
    EXPECT_EQ(r.accuracy, static_cast<double>(correct) / kExamples);
    EXPECT_EQ(r.avg_loss, loss / kExamples);
  }
  model.to_digital();
}

TEST_F(IntegrationTest, NoraIsExactWithoutNoise) {
  nn::TransformerLM& model = *trained_model();
  model.to_digital();
  const double fp = eval_accuracy(model);
  const eval::SynthLambada task(task_cfg());
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.nora.enabled = true;
  core::deploy_analog(model, task, opts);
  EXPECT_EQ(eval_accuracy(model), fp);
  model.to_digital();
}

TEST_F(IntegrationTest, QuantizationOnlyHurtsAndNoraRecovers) {
  nn::TransformerLM& model = *trained_model();
  model.to_digital();
  const double fp = eval_accuracy(model);
  const eval::SynthLambada task(task_cfg());
  // 7-bit converters alone (no other noise).
  cim::TileConfig q = cim::TileConfig::ideal();
  q.dac_bits = 7;
  q.adc_bits = 7;
  core::DeployOptions naive;
  naive.tile = q;
  naive.nora.enabled = false;
  core::deploy_analog(model, task, naive);
  const double acc_naive = eval_accuracy(model);
  model.to_digital();
  core::DeployOptions nora;
  nora.tile = q;
  nora.nora.enabled = true;
  core::deploy_analog(model, task, nora);
  const double acc_nora = eval_accuracy(model);
  model.to_digital();
  EXPECT_GE(acc_nora, acc_naive);
  EXPECT_GE(acc_nora, fp - 0.05);
}

}  // namespace
}  // namespace nora
