// IR-drop along bitlines (paper Table I: "wire resistance non-ideality").
//
// Current accumulates along each bitline toward the ADC; wire resistance
// makes the effective read-out of far rows slightly weaker, and the
// attenuation grows with the total current already flowing in the line.
// First-order model for column j with per-row contributions I_k = w_hat_kj
// * x_hat_k (rows ordered by distance from the ADC):
//
//   y_j = sum_k I_k * (1 - kappa * C_k / n_rows),   C_k = sum_{k' <= k} |I_k'|
//
// kappa = kBaseDrop * scale * (n_rows / 512): the deviation grows with
// physical line length, matching AIHWKIT's size-dependent ir_drop model,
// and `scale` is the Table II "ir_drop" knob (1.0 = nominal).
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

namespace nora::noise {

class IrDropModel {
 public:
  explicit IrDropModel(float scale = 0.0f, int n_rows = 512);

  bool enabled() const { return scale_ > 0.0f; }
  float scale() const { return scale_; }
  float kappa() const { return kappa_; }

  /// Accumulate one column: returns the IR-drop-distorted dot product of
  /// per-row contributions (w_hat_kj * x_hat_k), streamed in row order.
  /// contributions[k] = w_hat_kj * x_hat_k.
  ///
  /// Defined inline: this prefix-sum loop is the single hottest loop in
  /// the analog forward (one call per tile column), and an out-of-line
  /// definition costs a call + blocks vectorization at every site.
  float accumulate_column(std::span<const float> contributions) const {
    if (!enabled()) {
      double acc = 0.0;
      for (float c : contributions) acc += c;
      return static_cast<float>(acc);
    }
    const double inv_n = 1.0 / static_cast<double>(contributions.size());
    double cum_abs = 0.0;
    double acc = 0.0;
    for (float c : contributions) {
      cum_abs += std::fabs(c);
      acc += static_cast<double>(c) * (1.0 - kappa_ * cum_abs * inv_n);
    }
    return static_cast<float>(acc);
  }

  /// Fused variant: forms each per-row contribution w[k * stride] * x[k]
  /// on the fly instead of reading a pre-filled scratch column. The
  /// product is the same single-precision multiply the scratch fill
  /// performed, and the accumulation is the identical double-precision
  /// recurrence, so the result is bit-for-bit equal to
  ///   contrib[k] = w[k * stride] * x[k]; accumulate_column(contrib)
  /// without the store/reload through the scratch buffer. `stride` is 1
  /// for a contiguous column and the row length for a column of a
  /// row-major tile.
  float accumulate_column_fused(const float* w, const float* x, std::size_t n,
                                std::size_t stride = 1) const {
    if (!enabled()) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += w[k * stride] * x[k];
      return static_cast<float>(acc);
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    double cum_abs = 0.0;
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const float c = w[k * stride] * x[k];
      cum_abs += std::fabs(c);
      acc += static_cast<double>(c) * (1.0 - kappa_ * cum_abs * inv_n);
    }
    return static_cast<float>(acc);
  }

  /// Four-column fused variant over four adjacent columns of a row-major
  /// tile (w[k * ld + i] is column i's row k): runs
  /// accumulate_column_fused's exact recurrence on the four columns
  /// simultaneously. Each column's operation sequence is unchanged — the
  /// columns merely interleave in time — so every out[i] is bit-for-bit
  /// equal to the single-column call. The point is instruction-level
  /// parallelism: one column is a serial double-add chain (~4-cycle
  /// latency per row), but four independent chains pipeline through the
  /// FP adders and roughly quadruple the hot loop's throughput.
  void accumulate_columns_fused4(const float* w, std::size_t ld,
                                 const float* x, std::size_t n,
                                 float out[4]) const {
    const double inv_n = 1.0 / static_cast<double>(n);
    double ca0 = 0.0, ca1 = 0.0, ca2 = 0.0, ca3 = 0.0;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const float* row = w + k * ld;
      const float xk = x[k];
      const float c0 = row[0] * xk;
      const float c1 = row[1] * xk;
      const float c2 = row[2] * xk;
      const float c3 = row[3] * xk;
      ca0 += std::fabs(c0);
      a0 += static_cast<double>(c0) * (1.0 - kappa_ * ca0 * inv_n);
      ca1 += std::fabs(c1);
      a1 += static_cast<double>(c1) * (1.0 - kappa_ * ca1 * inv_n);
      ca2 += std::fabs(c2);
      a2 += static_cast<double>(c2) * (1.0 - kappa_ * ca2 * inv_n);
      ca3 += std::fabs(c3);
      a3 += static_cast<double>(c3) * (1.0 - kappa_ * ca3 * inv_n);
    }
    out[0] = static_cast<float>(a0);
    out[1] = static_cast<float>(a1);
    out[2] = static_cast<float>(a2);
    out[3] = static_cast<float>(a3);
  }

 private:
  static constexpr float kBaseDrop = 0.05f;
  float scale_ = 0.0f;
  int n_rows_ = 512;
  float kappa_ = 0.0f;
};

}  // namespace nora::noise
