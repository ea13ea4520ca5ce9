// Hardware timing model: replays a forward-pass Trace against resource
// models of the analog datapath (per-row-block DAC banks, per-tile MVM
// pipelines, shared per-column-group ADCs, inter-tile partial-sum links)
// and returns simulated-hardware latencies.
//
// An analog op is an in-order recurrence over tokens through one FIFO
// Resource per stage class (DAC, crossbar, ADC, link), exact against the
// per-block discrete-event simulation test_timing keeps as its oracle.
//
// Reconciliation with cost::cost_model: the stage durations are a split of
// the same DeviceCosts::tile_read_latency_ns constant the analytic model
// charges per token, and the three stage durations sum EXACTLY to
// llround(tile_read_latency_ns * 1000) ps. For a single unpipelined tile
// (row_blocks == col_blocks == pipeline_depth == 1) the modelled latency
// therefore degenerates to the analytic tokens * tile_read — asserted in
// test_cost_sim_consistency. Digital/int8/attention ops use the same
// compute-vs-weight-stream max() as cost::digital_linear_cost (kept in
// lock-step by the same test).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.hpp"  // header-only DeviceCosts struct
#include "timing/trace.hpp"

namespace nora::timing {

struct TimingConfig {
  bool enabled = false;   // off = strict no-op on the data path
  // Tokens allowed in flight inside one analog op: token t issues when
  // token t - depth completes. Depth 1 is strictly serial (the analytic
  // degenerate case); larger depths overlap DAC/crossbar/ADC stages of
  // consecutive tokens.
  int pipeline_depth = 1;
  // Split of tile_read_latency_ns across the three stages; the ADC share
  // is the remainder 1 - dac_frac - xbar_frac so the stages always sum to
  // the analytic constant exactly.
  double dac_frac = 0.15;
  double xbar_frac = 0.35;
  // Inter-tile partial-sum link bandwidth (row blocks > 0 ship one fp32
  // partial sum per output column to the accumulator).
  double link_bytes_per_ns = 64.0;
  cost::DeviceCosts costs;

  /// Throws std::invalid_argument on non-finite / out-of-range values.
  void validate() const;
};

struct LayerTiming {
  std::string layer;
  std::int64_t ps = 0;   // summed simulated time attributed to this layer
  std::int64_t ops = 0;  // trace ops replayed for this layer
};

struct StepTiming {
  std::int64_t total_ps = 0;  // simulated duration of the whole step
  std::int64_t events = 0;  // events of the dataflow model (exactness probe)
  // Inter-chip link traffic (multi-chip replay only; zero otherwise).
  std::int64_t link_ps = 0;         // total link busy time across transfers
  std::int64_t link_transfers = 0;  // pipeline-boundary activation transfers
  std::vector<LayerTiming> layers;  // first-appearance order
};

/// Add `ps` and `ops` to `layer`'s entry, appending a new entry on the
/// layer's first appearance (so `layers` stays in first-appearance order).
void add_layer_timing(std::vector<LayerTiming>& layers,
                      std::string_view layer, std::int64_t ps,
                      std::int64_t ops);

class HwModel {
 public:
  /// Validates cfg (throws std::invalid_argument on bad values).
  explicit HwModel(const TimingConfig& cfg);

  const TimingConfig& config() const { return cfg_; }

  // Stage durations (ps); dac + xbar + adc == tile read exactly.
  std::int64_t tile_ps() const { return tile_ps_; }
  std::int64_t dac_ps() const { return dac_ps_; }
  std::int64_t xbar_ps() const { return xbar_ps_; }
  std::int64_t adc_ps() const { return adc_ps_; }

  /// Latency of one analog MVM op; if `events_out` is non-null it
  /// receives the op's events of the dataflow model. Ops with
  /// tp_chips > 1 simulate the per-chip sub-grid (ceil-split along
  /// tp_axis) and add the inter-chip collective: a log2-round all-reduce
  /// of full-width fp32 partials for row splits, a single gather of the
  /// disjoint column slices for column splits, both charged per token at
  /// DeviceCosts::chip_link_{latency_ns, bytes_per_ns}.
  std::int64_t analog_op_ps(const TimingOp& op,
                            std::int64_t* events_out = nullptr) const;
  /// Analytic latency of a digital/int8 GEMM or attention op
  /// (compute-bound vs weight-stream-bound, as cost::digital_linear_cost).
  std::int64_t digital_op_ps(const TimingOp& op) const;
  /// Dispatch on op.kind.
  std::int64_t op_ps(const TimingOp& op,
                     std::int64_t* events_out = nullptr) const;

  /// Replay a whole forward-pass trace: ops execute back-to-back (the
  /// serving step is a single dependent chain through the network), with
  /// per-layer attribution in first-appearance order.
  StepTiming replay(const Trace& trace) const;

  /// Multi-chip pipelined replay: ops carry a chip placement (stamped by
  /// shard::apply_plan via TimingOp::chip) and the step's rows split
  /// into token-granular microbatches that flow through the chip
  /// pipeline — chip c runs microbatch m while chip c' runs m+1, which
  /// is legal dataflow because a token's KV rows are written at a stage
  /// before the next token reaches it. Crossing from one chip to the
  /// next ships the microbatch activations (rows_mb * k * 4 bytes) over
  /// the inter-chip link. Makespan = pipeline fill (every op + crossing
  /// once) + (M - 1) * bottleneck-chip interval; a chip's interval is
  /// its per-microbatch compute plus outbound transfers. With every op
  /// on chip 0 this degenerates to M * (per-microbatch chain) — the
  /// serial replay at microbatch granularity. Per-layer attribution is
  /// total busy time (per-microbatch latency * M).
  StepTiming replay_pipelined(const Trace& trace) const;

 private:
  TimingConfig cfg_;
  std::int64_t tile_ps_ = 0;
  std::int64_t dac_ps_ = 0;
  std::int64_t xbar_ps_ = 0;
  std::int64_t adc_ps_ = 0;
};

}  // namespace nora::timing
