#include "shard/apply.hpp"

#include <stdexcept>
#include <string>

#include "nn/block.hpp"

namespace nora::shard {

namespace {

void bind_linear(nn::Linear& lin, const StagePlan& st, cim::ShardAxis axis) {
  lin.set_timing_chip(st.chip0);
  if (cim::AnalogMatmul* analog = lin.analog()) {
    analog->set_shard_plan({axis, st.tp_chips});
  }
}

}  // namespace

void apply_plan(nn::TransformerLM& model, const ChipSet& chips,
                const PipelinePlan& plan) {
  const int n_blocks = static_cast<int>(model.blocks().size());
  plan.validate(n_blocks);
  if (plan.n_chips > chips.n_chips()) {
    throw std::invalid_argument("apply_plan: plan wants " +
                                std::to_string(plan.n_chips) +
                                " chips, chip set has " +
                                std::to_string(chips.n_chips()));
  }
  for (int b = 0; b < n_blocks; ++b) {
    const StagePlan& st =
        plan.stages[static_cast<std::size_t>(plan.stage_of_block(b))];
    nn::TransformerBlock& blk = model.blocks()[static_cast<std::size_t>(b)];
    nn::CausalSelfAttention& attn = blk.attention();
    attn.set_timing_chip(st.chip0);
    bind_linear(attn.qkv(), st, cim::ShardAxis::kColBlocks);
    bind_linear(attn.out_proj(), st, cim::ShardAxis::kRowBlocks);
    nn::Mlp& mlp = blk.mlp();
    bind_linear(mlp.up(), st, cim::ShardAxis::kColBlocks);
    if (nn::Linear* gate = mlp.gate()) {
      bind_linear(*gate, st, cim::ShardAxis::kColBlocks);
    }
    bind_linear(mlp.down(), st, cim::ShardAxis::kRowBlocks);
  }
  bind_linear(model.lm_head(), plan.last_stage(), cim::ShardAxis::kColBlocks);
}

void clear_plan(nn::TransformerLM& model) {
  for (nn::Linear* lin : model.linear_layers()) {
    lin->set_timing_chip(0);
    if (cim::AnalogMatmul* analog = lin->analog()) {
      analog->clear_shard_plan();
    }
  }
  for (nn::TransformerBlock& blk : model.blocks()) {
    blk.attention().set_timing_chip(0);
  }
}

}  // namespace nora::shard
