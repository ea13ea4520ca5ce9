#include "eval/evaluator.hpp"

#include <cmath>

namespace nora::eval {

EvalResult evaluate(nn::TransformerLM& model, const SynthLambada& task,
                    const EvalOptions& opts) {
  EvalResult res;
  res.n_examples = opts.n_examples;
  if (opts.n_examples <= 0) return res;
  double loss = 0.0;
  int correct = 0;
  for (int i = 0; i < opts.n_examples; ++i) {
    const Example ex = task.make_example(opts.split, static_cast<std::uint64_t>(i));
    // Example i is scored on noise stream i: a deployment evaluates to
    // the same result every time, and each example sees exactly what a
    // request with its tokens as the prompt would on stream i.
    const Matrix logits = model.infer(ex.tokens, static_cast<std::uint64_t>(i));
    const auto last = logits.row(logits.rows() - 1);
    int best = 0;
    float row_max = last[0];
    for (std::int64_t v = 1; v < logits.cols(); ++v) {
      if (last[v] > last[best]) best = static_cast<int>(v);
      row_max = std::max(row_max, last[v]);
    }
    if (best == ex.answer) ++correct;
    double denom = 0.0;
    for (std::int64_t v = 0; v < logits.cols(); ++v) {
      denom += std::exp(double(last[v]) - row_max);
    }
    loss += -(double(last[ex.answer]) - row_max - std::log(denom));
  }
  res.accuracy = static_cast<double>(correct) / opts.n_examples;
  res.avg_loss = loss / opts.n_examples;
  return res;
}

}  // namespace nora::eval
