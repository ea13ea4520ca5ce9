#include "timing/hw_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "timing/resource.hpp"

namespace nora::timing {

namespace {

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }
bool finite_pos(double v) { return std::isfinite(v) && v > 0.0; }

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

void check_op(const TimingOp& op) {
  if (op.rows <= 0 || op.k <= 0 || op.n <= 0 || op.row_blocks <= 0 ||
      op.col_blocks <= 0 || op.macs < 0 || op.chip < 0 || op.tp_chips < 1) {
    throw std::invalid_argument("HwModel: malformed timing op for layer '" +
                                std::string(op.layer) + "'");
  }
}

}  // namespace

void add_layer_timing(std::vector<LayerTiming>& layers,
                      std::string_view layer, std::int64_t ps,
                      std::int64_t ops) {
  for (LayerTiming& lt : layers) {
    if (lt.layer == layer) {
      lt.ps += ps;
      lt.ops += ops;
      return;
    }
  }
  layers.push_back(LayerTiming{std::string(layer), ps, ops});
}

void TimingConfig::validate() const {
  if (pipeline_depth < 1) {
    throw std::invalid_argument("timing: pipeline_depth must be >= 1, got " +
                                std::to_string(pipeline_depth));
  }
  if (!finite_nonneg(dac_frac) || !finite_nonneg(xbar_frac) ||
      dac_frac + xbar_frac >= 1.0) {
    throw std::invalid_argument(
        "timing: stage fractions must be finite, >= 0 and sum below 1 "
        "(the ADC share is the remainder)");
  }
  if (!finite_pos(link_bytes_per_ns)) {
    throw std::invalid_argument("timing: link_bytes_per_ns must be finite "
                                "and > 0");
  }
  if (!finite_pos(costs.tile_read_latency_ns) ||
      !finite_pos(costs.digital_macs_per_ns) ||
      !finite_pos(costs.dram_bytes_per_ns)) {
    throw std::invalid_argument(
        "timing: tile_read_latency_ns, digital_macs_per_ns and "
        "dram_bytes_per_ns must be finite and > 0");
  }
  if (!finite_nonneg(costs.chip_link_latency_ns) ||
      !finite_pos(costs.chip_link_bytes_per_ns)) {
    throw std::invalid_argument(
        "timing: chip_link_latency_ns must be finite and >= 0, "
        "chip_link_bytes_per_ns finite and > 0");
  }
}

HwModel::HwModel(const TimingConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  tile_ps_ = std::llround(cfg_.costs.tile_read_latency_ns * 1000.0);
  if (tile_ps_ <= 0) {
    throw std::invalid_argument("timing: tile read rounds to <= 0 ps");
  }
  dac_ps_ = std::llround(static_cast<double>(tile_ps_) * cfg_.dac_frac);
  xbar_ps_ = std::llround(static_cast<double>(tile_ps_) * cfg_.xbar_frac);
  // ADC takes the remainder so the three stages sum to the analytic
  // constant exactly — the degenerate-case reconciliation depends on it.
  adc_ps_ = tile_ps_ - dac_ps_ - xbar_ps_;
}

std::int64_t HwModel::analog_op_ps(const TimingOp& op,
                                   std::int64_t* events_out) const {
  check_op(op);
  if (op.tp_chips > 1 && op.tp_axis != ShardAxis::kNone) {
    // Tensor-parallel op: every chip runs the ceil-split sub-grid
    // concurrently (op latency = the identical per-chip DES), then the
    // chips exchange results over the inter-chip link. Effective width
    // never exceeds the split axis extent — surplus chips hold no tiles.
    const std::int64_t extent = op.tp_axis == ShardAxis::kRowBlocks
                                    ? op.row_blocks
                                    : op.col_blocks;
    const std::int64_t tc =
        std::min<std::int64_t>(op.tp_chips, std::max<std::int64_t>(1, extent));
    TimingOp sub = op;
    sub.tp_chips = 1;
    sub.tp_axis = ShardAxis::kNone;
    if (op.tp_axis == ShardAxis::kRowBlocks) {
      sub.row_blocks = ceil_div(op.row_blocks, tc);
    } else {
      sub.col_blocks = ceil_div(op.col_blocks, tc);
      sub.n = ceil_div(op.n, tc);
    }
    std::int64_t ps = analog_op_ps(sub, events_out);
    if (tc > 1) {
      // Row split all-reduces full-width fp32 partials in ceil(log2 tc)
      // rounds; a column split reassembles the disjoint slices in one
      // gather. Charged per token, serialized after the compute.
      std::int64_t rounds = 1;
      if (op.tp_axis == ShardAxis::kRowBlocks) {
        rounds = 0;
        for (std::int64_t span = 1; span < tc; span *= 2) ++rounds;
      }
      const double bytes = static_cast<double>(op.n) * 4.0;
      const double hop_ns = cfg_.costs.chip_link_latency_ns +
                            bytes / cfg_.costs.chip_link_bytes_per_ns;
      ps += op.rows * rounds * std::llround(hop_ns * 1000.0);
    }
    return ps;
  }
  const std::int64_t R = op.row_blocks;
  const std::int64_t C = op.col_blocks;

  // Partial-sum transfer per (row block > 0, column block): one fp32 per
  // output column of that block. Column widths are reconstructed from the
  // even n / col_blocks partition the tile grid uses. A row block's C
  // transfers reach the link together and are served back to back, so
  // they are granted as one hop of their summed (per-column rounded) time.
  const std::int64_t base_cols = ceil_div(op.n, C);
  std::int64_t row_hop_ps = 0;
  for (std::int64_t c = 0; c < C; ++c) {
    const std::int64_t rest = op.n - c * base_cols;
    const std::int64_t width = rest > 0 ? std::min(base_cols, rest) : base_cols;
    const double ns = static_cast<double>(width) * 4.0 / cfg_.link_bytes_per_ns;
    row_hop_ps += std::llround(ns * 1000.0);
  }

  // Per-token dataflow: each row block converts the token's input slice
  // (DAC), every tile in the row fires (crossbar), each column group's
  // shared ADC serializes the conversions of its R row blocks, and row
  // blocks beyond the first ship partial sums over the link. A token
  // completes when all R*C tile results have landed; token t + depth
  // issues at that instant (sliding in-flight window of `depth` tokens).
  //
  // One FIFO server per stage class reproduces the per-block servers
  // exactly: every server of a class sees the same arrivals (all R DAC
  // banks the issue time, all R*C crossbars the DAC completion, all C
  // ADC groups R requests at the crossbar completion), and every server
  // grants in (token, row block, column) order — the loop order below,
  // with the columns folded into one hop. Grants are monotone in that
  // order, so a token's last grant is its finish and the last token's
  // finish is the op's.
  const auto tokens = static_cast<std::size_t>(op.rows);
  const auto depth = static_cast<std::size_t>(cfg_.pipeline_depth);
  Resource dac, xbar, adc, link;
  std::vector<std::int64_t> finish(tokens);
  for (std::size_t t = 0; t < tokens; ++t) {
    const std::int64_t issue = t < depth ? 0 : finish[t - depth];
    const std::int64_t x = xbar.acquire(dac.acquire(issue, dac_ps_), xbar_ps_);
    finish[t] = adc.acquire(x, adc_ps_);  // row block 0 accumulates in place
    for (std::int64_t r = 1; r < R; ++r) {
      finish[t] = link.acquire(adc.acquire(x, adc_ps_), row_hop_ps);
    }
  }
  // Events of the dataflow model per token: R DAC, R*C crossbar and R*C
  // ADC completions plus (R-1)*C partial-sum landings.
  if (events_out != nullptr) {
    *events_out = op.rows * (R + 2 * R * C + (R - 1) * C);
  }
  return finish.back();
}

std::int64_t HwModel::digital_op_ps(const TimingOp& op) const {
  check_op(op);
  const std::int64_t macs =
      op.kind == OpKind::kAttention ? op.macs : op.rows * op.k * op.n;
  // Same compute-vs-weight-stream bound as cost::digital_linear_cost
  // (int8 streams 1 byte/weight, attention streams no weights) — kept in
  // lock-step by test_cost_sim_consistency.
  const double bytes_per_weight = op.kind == OpKind::kInt8Gemm ? 1.0
                                  : op.kind == OpKind::kAttention
                                      ? 0.0
                                      : 4.0;
  const double weight_bytes = static_cast<double>(op.k * op.n) * bytes_per_weight;
  const double compute_ns =
      static_cast<double>(macs) / cfg_.costs.digital_macs_per_ns;
  const double mem_ns = weight_bytes / cfg_.costs.dram_bytes_per_ns;
  return std::llround(std::max(compute_ns, mem_ns) * 1000.0);
}

std::int64_t HwModel::op_ps(const TimingOp& op,
                            std::int64_t* events_out) const {
  if (op.kind == OpKind::kAnalogMvm) return analog_op_ps(op, events_out);
  if (events_out != nullptr) *events_out = 0;
  return digital_op_ps(op);
}

StepTiming HwModel::replay(const Trace& trace) const {
  StepTiming st;
  for (const TimingOp& op : trace.ops) {
    std::int64_t events = 0;
    const std::int64_t ps = op_ps(op, &events);
    st.total_ps += ps;
    st.events += events;
    add_layer_timing(st.layers, op.layer, ps, 1);
  }
  return st;
}

StepTiming HwModel::replay_pipelined(const Trace& trace) const {
  StepTiming st;
  if (trace.ops.empty()) return st;
  // Token-granular microbatches: the batch's rows flow through the chip
  // pipeline one token-slice at a time. M is the widest op's row count,
  // so a decode step over B sequences pipelines B microbatches.
  std::int64_t M = 1;
  for (const TimingOp& op : trace.ops) M = std::max(M, op.rows);

  const std::size_t n_ops = trace.ops.size();
  std::vector<std::int64_t> mb_ps(n_ops);     // per-microbatch op latency
  std::vector<std::int64_t> out_link(n_ops);  // per-mb transfer after op i
  std::int64_t max_chip = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    const TimingOp& op = trace.ops[i];
    TimingOp sub = op;
    sub.rows = ceil_div(std::max<std::int64_t>(1, op.rows), M);
    sub.macs = ceil_div(op.macs, M);
    std::int64_t events = 0;
    mb_ps[i] = op_ps(sub, &events);
    st.events += events;
    max_chip = std::max<std::int64_t>(max_chip, op.chip);
    if (i > 0 && trace.ops[i - 1].chip != op.chip) {
      // Pipeline boundary: ship the microbatch activations feeding op i
      // (rows_mb x k fp32) over the inter-chip link.
      const double bytes = static_cast<double>(sub.rows) *
                           static_cast<double>(op.k) * 4.0;
      const double hop_ns = cfg_.costs.chip_link_latency_ns +
                            bytes / cfg_.costs.chip_link_bytes_per_ns;
      out_link[i - 1] = std::llround(hop_ns * 1000.0);
      st.link_ps += out_link[i - 1] * M;
      st.link_transfers += M;
    }
    // Attribution = busy time over all microbatches.
    add_layer_timing(st.layers, op.layer, mb_ps[i] * M, 1);
  }
  // Makespan = pipeline fill (the first microbatch traverses every op
  // and boundary once) + steady state (each later microbatch advances
  // one bottleneck-chip interval; a chip admits one microbatch at a
  // time, so its interval is its compute plus outbound transfers).
  std::int64_t fill = 0;
  std::vector<std::int64_t> chip_load(static_cast<std::size_t>(max_chip + 1));
  for (std::size_t i = 0; i < n_ops; ++i) {
    fill += mb_ps[i] + out_link[i];
    chip_load[static_cast<std::size_t>(trace.ops[i].chip)] +=
        mb_ps[i] + out_link[i];
  }
  std::int64_t bottleneck = 0;
  for (std::int64_t load : chip_load) bottleneck = std::max(bottleneck, load);
  st.total_ps = fill + (M - 1) * bottleneck;
  return st;
}

}  // namespace nora::timing
