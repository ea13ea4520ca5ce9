// Analog tile configuration — the knobs of paper Table II plus one flag
// per modelled non-ideality (paper Table I).
//
// All non-idealities act in the tile's *normalized* domain: weights are
// mapped to conductances in [-1, 1] (differential pair, normalized by
// g_max) and inputs to voltages in [-1, 1]. g_max only matters for
// reporting physical quantities (Fig. 6c plots alpha*gamma*g_max).
#pragma once

#include <cstdint>

#include "faults/fault_model.hpp"
#include "noise/drift.hpp"

namespace nora::cim {

/// NVM device family (paper Sec. VII: "this method can also be extended
/// to other NVM devices such as ReRAM. Although some NVM devices cannot
/// provide continuous analog weights, they can achieve over 8-bit weight
/// precision by using multiple memory cells").
enum class DeviceKind {
  kPcmAnalog,       // continuous conductance, PCM-like programming noise
  kReramQuantized,  // discrete conductance levels, bit-sliced over cells
};

/// How the per-token input scale alpha_i is chosen before the DAC.
enum class InputScaling {
  kNone,       // alpha = 1 (inputs assumed pre-normalized)
  kAbsMax,     // alpha_i = max|x_i| — Eq. 5, the paper's default
  kAvgAbsMax,  // alpha = batch-average of row abs-max (noise management
               // variant of [Gokmen'17]; trades clipping for resolution)
};

struct TileConfig {
  // --- converters (Table II: in_res / out_res, 7 bit = 128 steps) ---
  int dac_bits = 7;        // 0 disables input quantization
  int adc_bits = 7;        // 0 disables output quantization
  /// When > 0, these fractional step counts override the bit settings —
  /// used by the MSE-matched sensitivity sweeps, which treat converter
  /// resolution as a continuous noise knob.
  float dac_steps_override = 0.0f;
  float adc_steps_override = 0.0f;
  float adc_bound = 12.0f; // ADC full scale in normalized output units
                           // (AIHWKIT default out_bound)

  float dac_steps() const {
    if (dac_steps_override > 0.0f) return dac_steps_override;
    return dac_bits > 0 ? static_cast<float>(1 << dac_bits) : 0.0f;
  }
  float adc_steps() const {
    if (adc_steps_override > 0.0f) return adc_steps_override;
    return adc_bits > 0 ? static_cast<float>(1 << adc_bits) : 0.0f;
  }

  // --- I/O non-idealities ---
  float in_noise = 0.0f;   // additive Gaussian after the DAC
  float out_noise = 0.04f; // additive Gaussian before the ADC (Table II)
  float sshape_k = 0.0f;   // S-shape nonlinearity severity (0 = linear)

  // --- device / programming model ---
  DeviceKind device = DeviceKind::kPcmAnalog;
  /// ReRAM only: conductance levels per cell and cells per weight;
  /// effective weight precision = bits_per_cell * cells_per_weight bits.
  int reram_bits_per_cell = 4;
  int reram_cells_per_weight = 2;
  /// Iterative write-verify programming [Buechel'23, Mackin'22]: each
  /// extra iteration reads the device and corrects toward the target,
  /// geometrically shrinking the programming error toward a floor set
  /// by pulse granularity. 1 = single-shot programming.
  int write_verify_iters = 1;

  // --- tile non-idealities ---
  float w_noise = 0.0175f;      // short-term read noise (Table II)
  float prog_noise_scale = 1.0f; // programming-noise scale (1 = nominal)
  float ir_drop = 1.0f;          // IR-drop scale (Table II)
  noise::DriftConfig drift;      // PCM drift model parameters
  bool drift_enabled = false;    // drift only matters for the t > 0 ablation

  // --- hard faults & repair (yield machinery; all off by default) ---
  /// Stuck-at / dead-line / yield defects, sampled at program time from
  /// the construction seed. A default FaultConfig samples nothing and
  /// consumes no randomness (fault-free runs stay bit-identical).
  faults::FaultConfig faults;
  /// Spare columns reserved per physical tile for fault remapping; the
  /// logical capacity of a tile shrinks to tile_cols - spare_cols.
  int spare_cols = 0;
  /// Column fault density above which a logical column is remapped onto
  /// the cleanest available spare (only if the spare is cleaner).
  float spare_remap_threshold = 0.05f;
  /// Program-verify-reprogram: rounds of per-device readback + rewrite
  /// for devices outside program_tolerance of their target. 0 disables
  /// the loop entirely (and leaves RNG streams untouched).
  int max_program_retries = 0;
  /// Acceptance band for the verify readback, in normalized conductance.
  float program_tolerance = 0.02f;

  // --- runtime integrity: ABFT checksum column (off by default) ---
  /// Program one extra checksum column per tile, holding the gamma-folded
  /// column sums of the programmed conductances. Every MVM reads it back
  /// and compares against the digitally-stored as-programmed signature;
  /// a residual beyond the noise-calibrated threshold flags the tile as
  /// silently corrupted (drift, transient upsets, worn devices). The
  /// checksum read draws from a dedicated RNG stream, so enabling it
  /// never perturbs the data-path outputs; disabling it is bit-identical
  /// to a checksum-free tile.
  bool abft_checksum = false;
  /// Detection threshold in units of the clean checksum-read noise
  /// std-dev (read noise + output noise, plus the ADC half-step as an
  /// absolute term). With every runtime noise knob off the threshold is
  /// exactly zero and any post-programming change of any device flags.
  float abft_threshold_sigma = 4.0f;

  // --- geometry / physics ---
  int tile_rows = 512;   // Table II tile_size
  int tile_cols = 512;
  float g_max = 25.0f;   // muS; used only in reported alpha*gamma*g_max

  // --- input management ---
  InputScaling scaling = InputScaling::kAbsMax;
  bool bound_management = false; // iterative alpha doubling on ADC saturation
  int bm_max_iters = 3;

  // --- execution ---
  /// Execution width for AnalogMatmul::forward: (token x row-block) MVM
  /// work items fan out over the global util::ThreadPool. Every work
  /// item derives its own RNG streams from its row's cim::StreamKey
  /// (stream, token) plus (row-block, attempt, tile) counters, so the
  /// output is bit-identical for ANY value of n_threads — this knob
  /// changes wall-clock only, never results.
  int n_threads = 1;

  std::uint64_t seed = 0x5eedf00dULL;

  /// The paper's Table II operating point (all non-idealities on).
  static TileConfig paper_table2() { return TileConfig{}; }

  /// Fully ideal tile: quantizers off, every noise zero. Output must
  /// equal the digital GEMM (unit-tested invariant).
  static TileConfig ideal();

  /// Ideal tile with exactly one knob left for sensitivity sweeps.
  static TileConfig ideal_except_out_noise(float sigma);
  static TileConfig ideal_except_in_noise(float sigma);
  static TileConfig ideal_except_adc(int bits, float bound = 12.0f);
  static TileConfig ideal_except_dac(int bits);
  static TileConfig ideal_except_w_noise(float sigma);
  static TileConfig ideal_except_prog_noise(float scale);
  static TileConfig ideal_except_ir_drop(float scale);
  static TileConfig ideal_except_sshape(float k);
};

}  // namespace nora::cim
