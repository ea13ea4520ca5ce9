// Operation trace for the timing co-simulator.
//
// The execution path (nn::Linear, nn::CausalSelfAttention) records one
// TimingOp per pass into the thread-local active trace — shape metadata
// only, never tensor data. Ops are emitted from the thread that drives the
// forward pass (the scheduler's step thread), never from thread-pool
// workers, so the trace is a pure function of the workload and identical
// at any host thread count. With no trace installed (the default, and
// whenever timing.enabled=false) record() is a null-check and return:
// a strict no-op on the data path.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace nora::timing {

enum class OpKind : std::uint8_t {
  kAnalogMvm = 0,   // analog tile-grid matmul (DAC -> crossbar -> ADC)
  kDigitalGemm,     // fp32 digital GEMM (native digital or bypass fallback)
  kInt8Gemm,        // int8 quantized GEMM
  kAttention,       // digital attention score/context arithmetic
};

const char* to_string(OpKind kind);

/// Tensor-parallel partitioning of one analog op across chips (stamped
/// from the layer's cim::ShardPlan axis; kNone for unsharded ops).
enum class ShardAxis : std::uint8_t {
  kNone = 0,
  kRowBlocks,  // row split: chips all-reduce full-width fp32 partials
  kColBlocks,  // column split: chips gather disjoint output columns
};

struct TimingOp {
  OpKind kind = OpKind::kDigitalGemm;
  // e.g. "blk0.attn.qkv". A view, so recording an op never allocates:
  // it must name a string that outlives the trace (the layer's own
  // name member, or a literal).
  std::string_view layer;
  std::int64_t rows = 0;      // batch rows (tokens) through the op
  std::int64_t k = 0;         // input features
  std::int64_t n = 0;         // output features
  std::int64_t row_blocks = 1;  // analog tile grid height (1 for digital)
  std::int64_t col_blocks = 1;  // analog tile grid width (1 for digital)
  std::int64_t macs = 0;      // exact MAC count (attention is ragged)
  // Multi-chip placement metadata (defaults describe the single-chip
  // world, so pre-shard traces and tests are unaffected).
  int chip = 0;               // pipeline placement: chip executing the op
  int tp_chips = 1;           // tensor-parallel width across the op
  ShardAxis tp_axis = ShardAxis::kNone;

  bool operator==(const TimingOp&) const = default;
};

struct Trace {
  std::vector<TimingOp> ops;

  void clear() { ops.clear(); }
  bool empty() const { return ops.empty(); }
};

/// The calling thread's active trace, or nullptr when tracing is off.
Trace* active_trace();
/// Install `trace` (may be nullptr) as the calling thread's sink; returns
/// the previous sink so scopes can nest.
Trace* set_active_trace(Trace* trace);

/// Append `op` to the active trace; no-op when none is installed.
inline void record(TimingOp op) {
  Trace* t = active_trace();
  if (t != nullptr) t->ops.push_back(std::move(op));
}

/// RAII installer: restores the previous sink even if the traced forward
/// pass throws.
class ScopedTrace {
 public:
  explicit ScopedTrace(Trace* trace) : prev_(set_active_trace(trace)) {}
  ~ScopedTrace() { set_active_trace(prev_); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  Trace* prev_;
};

}  // namespace nora::timing
