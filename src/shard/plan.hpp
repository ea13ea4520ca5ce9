// Multi-chip placement plans: which chips run which transformer blocks
// (pipeline parallelism) and how wide each stage shards its linears
// (tensor parallelism), plus the cost-model-driven search that picks a
// plan for a chip budget.
//
// A plan is PURE METADATA for the timing co-simulator plus a recipe for
// shard::apply_plan. It never changes what the model computes: sharded
// execution is bit-identical for any plan (see cim::ShardPlan), so the
// search is free to optimize simulated time alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/transformer.hpp"
#include "timing/hw_model.hpp"
#include "timing/trace.hpp"

namespace nora::shard {

/// One pipeline stage: a contiguous run of transformer blocks executed
/// on chips [chip0, chip0 + tp_chips), tensor-parallel across them
/// (column split for qkv/up/gate/lm_head, row split for out/down).
struct StagePlan {
  int first_block = 0;
  int n_blocks = 0;
  int chip0 = 0;
  int tp_chips = 1;
};

struct PipelinePlan {
  std::vector<StagePlan> stages;  // dataflow order, cover all blocks
  int n_chips = 1;                // chip budget the plan was built for

  /// Stage index owning block b; throws std::invalid_argument when the
  /// plan does not cover it.
  int stage_of_block(int b) const;
  /// The lm_head rides the last stage (it must follow the final block).
  const StagePlan& last_stage() const;
  /// Contiguity / coverage / chip-range check against a model shape.
  /// Throws std::invalid_argument naming the violation.
  void validate(int n_blocks) const;
  /// e.g. "2 chips: [b0..b0 @chip0 x2] [b1..b1 @chip2 x1]"
  std::string to_string() const;
};

/// Naive baseline: block i on chip i % n_chips, no tensor parallelism —
/// maximal pipeline-boundary crossings, the placement the cost-model
/// search must beat.
PipelinePlan plan_round_robin(int n_blocks, int n_chips);

/// Pure tensor parallelism: one stage holding every block, sharded
/// across all chips. The chip-invariance property tests sweep this plan
/// over chip counts.
PipelinePlan plan_tensor_parallel(int n_blocks, int n_chips);

/// The synthetic decode-step trace a candidate plan implies: every
/// block's ops (qkv, attention, out, up[, gate], down, then lm_head)
/// with the plan's chip / tensor-parallel stamps, `rows` tokens wide,
/// attention context ~ctx_hint. This is EXACTLY what the scheduler's
/// multi-chip replay sees for a decode step of `rows` sequences, so
/// searching on it optimizes the deployed metric, not a proxy. The ops
/// name `model`'s layers by view, so the trace must not outlive it.
timing::Trace plan_trace(nn::TransformerLM& model, const PipelinePlan& plan,
                         std::int64_t rows, std::int64_t ctx_hint);

/// Cost-model-driven placement: exhaustively enumerate contiguous
/// block partitions and per-stage chip widths within the budget, score
/// each candidate with hw.replay_pipelined(plan_trace(...)) — the event
/// clock, inter-chip link costs included — and return the minimum.
/// `microbatches` is the expected concurrent-sequence count of a decode
/// step (the pipeline occupancy the plan should optimize for).
/// Deterministic: ties break toward fewer stages, then fewer chips.
PipelinePlan plan_cost_model(nn::TransformerLM& model,
                             const timing::HwModel& hw, int n_chips,
                             std::int64_t microbatches = 8,
                             std::int64_t ctx_hint = 32);

}  // namespace nora::shard
