// Linear layer with a pluggable compute backend.
//
// This is the seam the whole paper turns on (its Fig. 2b): during
// training and for the "digital full precision" baseline the layer is a
// plain fp32 GEMM; for analog deployment it is re-targeted to a
// cim::AnalogMatmul tile array (optionally with a NORA rescale vector),
// while normalization / attention / activations stay digital.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cim/analog_matmul.hpp"
#include "cim/tile_config.hpp"
#include "nn/param.hpp"
#include "tensor/matrix.hpp"

namespace nora::nn {

class Linear {
 public:
  /// Weights [in x out], bias [out]. Initialized N(0, init_std).
  Linear(std::string name, std::int64_t in_dim, std::int64_t out_dim,
         util::Rng& rng, float init_std);

  const std::string& name() const { return name_; }
  std::int64_t in_dim() const { return w_.value.rows(); }
  std::int64_t out_dim() const { return w_.value.cols(); }
  bool is_analog() const { return analog_ != nullptr; }
  /// True when the backend computes each output row from its own input
  /// row alone (see cim::AnalogMatmul::rows_independent); the digital,
  /// bypass and INT8 paths always do.
  bool rows_independent() const {
    return analog_ == nullptr || digital_bypass_ || analog_->rows_independent();
  }

  /// Training forward: forward_keyed on the fp32 GEMM, caching x for
  /// backward. Throws std::logic_error on an analog or INT8 backend.
  Matrix forward(const Matrix& x);

  /// x: [T x in] -> [T x out], with explicit per-row noise-stream keys
  /// (see cim::StreamKey): the serving layer keys each row on its
  /// request's stream and request-local position so results do not
  /// depend on batch composition. Digital and INT8 backends are row-wise
  /// deterministic and ignore the keys. Runs the calibration captures,
  /// traces the op, then the analog, INT8 or fp32 GEMM plus the bias.
  Matrix forward_keyed(const Matrix& x, std::span<const cim::StreamKey> keys);

  /// Backprop; accumulates dW/db, returns dX. Digital backend only.
  Matrix backward(const Matrix& dy);

  /// Re-target to an analog tile array. `s` is the NORA rescale vector
  /// (length in_dim) or empty for the naive mapping.
  void to_analog(const cim::TileConfig& cfg, std::vector<float> s,
                 std::uint64_t seed);
  /// Re-target to the digital W8A8 INT8 backend; `s` is a SmoothQuant
  /// rescale vector or empty. static_act_scale > 0 selects static
  /// per-tensor activation quantization with that calibrated scale;
  /// otherwise scales are per-token dynamic.
  void to_int8(std::vector<float> s, float static_act_scale = 0.0f);
  bool is_int8() const { return int8_; }
  /// Back to the exact digital fp32 GEMM.
  void to_digital();
  cim::AnalogMatmul* analog() { return analog_.get(); }
  const cim::AnalogMatmul* analog() const { return analog_.get(); }

  /// Pipeline placement stamp for the timing co-sim: the chip this
  /// layer's ops execute on (TimingOp::chip). Pure metadata — it never
  /// changes what the layer computes. Set by shard::apply_plan.
  void set_timing_chip(int chip) { timing_chip_ = chip; }
  int timing_chip() const { return timing_chip_; }

  /// Non-destructive digital detour: while set, forwards run the exact
  /// fp32 GEMM but the analog (or INT8) backend stays programmed and
  /// resumes untouched when the bypass clears. This is the serving
  /// layer's maintenance-window path — the tiles are "off line" being
  /// repaired, yet the deployment (conductances, wear record, NORA
  /// rescale) must survive, unlike to_digital() which discards it.
  void set_digital_bypass(bool on) { digital_bypass_ = on; }
  bool digital_bypass() const { return digital_bypass_; }

  // --- calibration hooks (used by the NORA calibration pass) ---
  /// While enabled, every forward accumulates per-input-channel
  /// max|x_k| into input_abs_max().
  void set_capture_input(bool on);
  std::span<const float> input_abs_max() const { return input_abs_max_; }
  /// While enabled, every forward also appends its full input rows (for
  /// distribution analytics: Fig. 4 KDE, Fig. 6 kurtosis).
  void set_capture_full(bool on);
  const Matrix& captured_inputs() const { return captured_inputs_; }
  /// Per-input-channel max|w_k| (max over the row of W).
  std::vector<float> weight_row_abs_max() const;

  Param& weight() { return w_; }
  const Param& weight() const { return w_; }
  Param& bias() { return b_; }
  void collect_params(ParamRefs& out);

 private:
  /// Append this pass's shape metadata to the thread-local timing trace
  /// (no-op when tracing is off — the timing.enabled=false fast path).
  void record_timing(std::int64_t rows) const;

  std::string name_;
  Param w_;  // [in x out]
  Param b_;  // [1 x out]
  std::unique_ptr<cim::AnalogMatmul> analog_;
  int timing_chip_ = 0;
  bool digital_bypass_ = false;
  bool int8_ = false;
  std::vector<float> int8_s_;
  float int8_static_scale_ = 0.0f;
  Matrix x_cache_;
  bool capture_input_ = false;
  bool capture_full_ = false;
  std::vector<float> input_abs_max_;
  Matrix captured_inputs_;
};

}  // namespace nora::nn
