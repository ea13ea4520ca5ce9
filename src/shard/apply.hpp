// Bind a PipelinePlan to a model: install the cim::ShardPlans (which
// chips each analog layer's tiles are placed on, split along the layer's
// role axis) and the timing-chip stamps the co-simulator reads. Host
// execution does not follow the placement: every analog layer runs on
// the global pool at its TileConfig::n_threads.
//
// Role axes follow the Megatron convention adapted to tile grids:
//   column split (disjoint output columns, no cross-chip reduction):
//     qkv, mlp up / gate, lm_head
//   row split (full-width fp32 partials, canonical tree all-reduce):
//     attention out-proj, mlp down
// Execution is bit-identical for ANY plan — see cim::ShardPlan — so
// applying, swapping or clearing plans never changes model outputs.
#pragma once

#include "nn/transformer.hpp"
#include "shard/chip_set.hpp"
#include "shard/plan.hpp"

namespace nora::shard {

/// Install `plan` on the model. Validates the plan against the model
/// and `chips` shapes (throws std::invalid_argument).
void apply_plan(nn::TransformerLM& model, const ChipSet& chips,
                const PipelinePlan& plan);

/// Remove all shard plans and chip stamps: back to single-chip
/// execution on the legacy (linear-fold) path.
void clear_plan(nn::TransformerLM& model);

}  // namespace nora::shard
