#include "shard/plan.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/block.hpp"

namespace nora::shard {

namespace {

/// Timing-op shape of one linear under a stage's tensor parallelism.
/// Mirrors Linear::record_timing + the stamps apply_plan would install.
timing::TimingOp op_for(const nn::Linear& lin, std::int64_t rows, int chip,
                        int tp_chips, timing::ShardAxis axis) {
  timing::TimingOp op;
  op.layer = lin.name();
  op.rows = rows;
  op.k = lin.in_dim();
  op.n = lin.out_dim();
  op.macs = rows * op.k * op.n;
  op.chip = chip;
  const cim::AnalogMatmul* analog = lin.analog();
  if (analog != nullptr && !lin.digital_bypass()) {
    op.kind = timing::OpKind::kAnalogMvm;
    op.row_blocks = analog->row_blocks();
    op.col_blocks = analog->col_blocks();
    if (tp_chips > 1) {
      op.tp_chips = tp_chips;
      op.tp_axis = axis;
    }
  } else if (lin.is_int8() && !lin.digital_bypass()) {
    op.kind = timing::OpKind::kInt8Gemm;
  } else {
    op.kind = timing::OpKind::kDigitalGemm;
  }
  return op;
}

}  // namespace

int PipelinePlan::stage_of_block(int b) const {
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const StagePlan& st = stages[s];
    if (b >= st.first_block && b < st.first_block + st.n_blocks) {
      return static_cast<int>(s);
    }
  }
  throw std::invalid_argument("PipelinePlan: block " + std::to_string(b) +
                              " not covered by any stage");
}

const StagePlan& PipelinePlan::last_stage() const {
  if (stages.empty()) {
    throw std::invalid_argument("PipelinePlan: no stages");
  }
  return stages.back();
}

void PipelinePlan::validate(int n_blocks) const {
  if (stages.empty()) {
    throw std::invalid_argument("PipelinePlan: no stages");
  }
  int next = 0;
  for (const StagePlan& st : stages) {
    if (st.first_block != next || st.n_blocks < 1) {
      throw std::invalid_argument(
          "PipelinePlan: stages must cover blocks contiguously in order");
    }
    if (st.chip0 < 0 || st.tp_chips < 1 || st.chip0 + st.tp_chips > n_chips) {
      throw std::invalid_argument(
          "PipelinePlan: stage chip range [" + std::to_string(st.chip0) +
          ", " + std::to_string(st.chip0 + st.tp_chips) + ") outside " +
          std::to_string(n_chips) + " chips");
    }
    next += st.n_blocks;
  }
  if (next != n_blocks) {
    throw std::invalid_argument("PipelinePlan: stages cover " +
                                std::to_string(next) + " of " +
                                std::to_string(n_blocks) + " blocks");
  }
}

std::string PipelinePlan::to_string() const {
  std::string out = std::to_string(n_chips) + " chips:";
  for (const StagePlan& st : stages) {
    out += " [b" + std::to_string(st.first_block) + "..b" +
           std::to_string(st.first_block + st.n_blocks - 1) + " @chip" +
           std::to_string(st.chip0) + " x" + std::to_string(st.tp_chips) + "]";
  }
  return out;
}

PipelinePlan plan_round_robin(int n_blocks, int n_chips) {
  if (n_blocks < 1 || n_chips < 1) {
    throw std::invalid_argument("plan_round_robin: need >= 1 block and chip");
  }
  PipelinePlan plan;
  plan.n_chips = n_chips;
  for (int b = 0; b < n_blocks; ++b) {
    plan.stages.push_back(StagePlan{b, 1, b % n_chips, 1});
  }
  return plan;
}

PipelinePlan plan_tensor_parallel(int n_blocks, int n_chips) {
  if (n_blocks < 1 || n_chips < 1) {
    throw std::invalid_argument("plan_tensor_parallel: need >= 1 block/chip");
  }
  PipelinePlan plan;
  plan.n_chips = n_chips;
  plan.stages.push_back(StagePlan{0, n_blocks, 0, n_chips});
  return plan;
}

timing::Trace plan_trace(nn::TransformerLM& model, const PipelinePlan& plan,
                         std::int64_t rows, std::int64_t ctx_hint) {
  const int n_blocks = static_cast<int>(model.blocks().size());
  plan.validate(n_blocks);
  if (rows < 1) rows = 1;
  if (ctx_hint < 1) ctx_hint = 1;
  timing::Trace trace;
  const std::int64_t d = model.config().d_model;
  for (int b = 0; b < n_blocks; ++b) {
    const StagePlan& st = plan.stages[static_cast<std::size_t>(
        plan.stage_of_block(b))];
    nn::TransformerBlock& blk = model.blocks()[static_cast<std::size_t>(b)];
    nn::CausalSelfAttention& attn = blk.attention();
    trace.ops.push_back(op_for(attn.qkv(), rows, st.chip0, st.tp_chips,
                               timing::ShardAxis::kColBlocks));
    timing::TimingOp scores;
    scores.kind = timing::OpKind::kAttention;
    scores.layer = attn.scores_name();
    scores.rows = rows;
    scores.k = d;
    scores.n = d;
    scores.macs = 2 * d * rows * ctx_hint;
    scores.chip = st.chip0;
    trace.ops.push_back(std::move(scores));
    trace.ops.push_back(op_for(attn.out_proj(), rows, st.chip0, st.tp_chips,
                               timing::ShardAxis::kRowBlocks));
    nn::Mlp& mlp = blk.mlp();
    trace.ops.push_back(op_for(mlp.up(), rows, st.chip0, st.tp_chips,
                               timing::ShardAxis::kColBlocks));
    if (nn::Linear* gate = mlp.gate()) {
      trace.ops.push_back(op_for(*gate, rows, st.chip0, st.tp_chips,
                                 timing::ShardAxis::kColBlocks));
    }
    trace.ops.push_back(op_for(mlp.down(), rows, st.chip0, st.tp_chips,
                               timing::ShardAxis::kRowBlocks));
  }
  const StagePlan& last = plan.last_stage();
  trace.ops.push_back(op_for(model.lm_head(), rows, last.chip0,
                             last.tp_chips, timing::ShardAxis::kColBlocks));
  return trace;
}

PipelinePlan plan_cost_model(nn::TransformerLM& model,
                             const timing::HwModel& hw, int n_chips,
                             std::int64_t microbatches,
                             std::int64_t ctx_hint) {
  const int n_blocks = static_cast<int>(model.blocks().size());
  if (n_blocks < 1 || n_chips < 1) {
    throw std::invalid_argument("plan_cost_model: need >= 1 block and chip");
  }
  if (microbatches < 1) microbatches = 1;
  PipelinePlan best;
  std::int64_t best_ps = std::numeric_limits<std::int64_t>::max();
  // Tie key: fewer stages, then fewer chips used — a strictly simpler
  // plan wins an exact cost tie, and the scan order is deterministic.
  std::pair<int, int> best_tie{0, 0};
  PipelinePlan cur;
  cur.n_chips = n_chips;
  // Enumerate contiguous block partitions with per-stage chip widths;
  // stages occupy disjoint chip ranges left to right and the total may
  // be under budget (extra chips that do not pay for themselves idle).
  auto recurse = [&](auto&& self, int block0, int chip0) -> void {
    if (block0 == n_blocks) {
      const timing::Trace trace =
          plan_trace(model, cur, microbatches, ctx_hint);
      const std::int64_t ps = hw.replay_pipelined(trace).total_ps;
      const std::pair<int, int> tie{static_cast<int>(cur.stages.size()),
                                    chip0};
      if (ps < best_ps || (ps == best_ps && tie < best_tie)) {
        best_ps = ps;
        best_tie = tie;
        best = cur;
      }
      return;
    }
    if (chip0 >= n_chips) return;  // out of chips, blocks uncovered
    for (int len = 1; len <= n_blocks - block0; ++len) {
      for (int width = 1; width <= n_chips - chip0; ++width) {
        cur.stages.push_back(StagePlan{block0, len, chip0, width});
        self(self, block0 + len, chip0 + width);
        cur.stages.pop_back();
      }
    }
  };
  recurse(recurse, 0, 0);
  return best;
}

}  // namespace nora::shard
