// A single physical analog CIM tile (paper Fig. 2a, Eq. 3-5).
//
// The tile stores one [rows x cols] slice of a (possibly rescaled) weight
// matrix as normalized conductances:
//
//   w_hat_kj = f_map(w_kj / gamma_j) + prog_noise,
//   gamma_j  = max_k |w_kj|            (per-column scale, Eq. 4/6)
//
// and executes one MVM per input vector:
//
//   y_j = alpha * gamma_j * f_adc( sum_k w_hat_kj x_hat_k + out_noise )
//
// where x_hat is the DAC-quantized, noise-perturbed, nonlinearity-
// distorted input produced by the owning tile array. All non-idealities
// are controlled by TileConfig; with everything disabled the tile
// reproduces the digital GEMV exactly (unit-tested).
#pragma once

#include <span>
#include <vector>

#include "cim/tile_config.hpp"
#include "faults/fault_model.hpp"
#include "faults/repair.hpp"
#include "noise/drift.hpp"
#include "noise/ir_drop.hpp"
#include "noise/programming.hpp"
#include "noise/quantizer.hpp"
#include "noise/read_noise.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace nora::cim {

/// Runtime ABFT checksum statistics of one tile (or aggregated over a
/// tile array). A "check" is one checksum-column read per MVM; a "flag"
/// is a residual beyond the noise-calibrated threshold.
struct AbftStats {
  std::int64_t checks = 0;
  std::int64_t flags = 0;
  double residual_abs_sum = 0.0;  // sum of |residual| (output units)
  double residual_max = 0.0;      // max |residual| seen
  double ratio_sum = 0.0;         // sum of |residual| / threshold

  double flag_rate() const {
    return checks > 0 ? static_cast<double>(flags) / static_cast<double>(checks)
                      : 0.0;
  }
  double mean_ratio() const {
    return checks > 0 ? ratio_sum / static_cast<double>(checks) : 0.0;
  }
  void accumulate(const AbftStats& o) {
    checks += o.checks;
    flags += o.flags;
    residual_abs_sum += o.residual_abs_sum;
    residual_max = residual_max > o.residual_max ? residual_max : o.residual_max;
    ratio_sum += o.ratio_sum;
  }
};

/// Per-work-item runtime counters of one tile MVM (ADC activity plus the
/// ABFT checksum record). The parallel forward accumulates these locally
/// per (token, row-block) work item and folds them into the owning tiles
/// in canonical work-item order afterwards, so the tile counters are both
/// race-free and bit-identical for any thread count.
struct TileRunCounters {
  std::int64_t adc_reads = 0;
  std::int64_t adc_saturations = 0;
  AbftStats abft;
};

/// Caller-owned scratch for the thread-safe mvm form. One MVM drains up
/// to two Gaussian draws per column (read noise + output noise); the
/// tile prefills them into `noise` with a single batched
/// Rng::gaussian_fill instead of 2*cols individual calls, and writes
/// every column sum into `acc` before the per-column read-out. The
/// buffers grow to the high-water mark on first use and are reused
/// verbatim afterwards, so a warmed-up scratch performs zero allocations
/// per MVM.
struct TileMvmScratch {
  std::vector<double> noise;  // prefilled standard normals, drained per column
  std::vector<float> acc;     // column sums before noise and ADC [cols]
};

class AnalogTile {
 public:
  /// w_slice: logical weights [rows x cols] (any NORA rescale already
  /// folded in by the caller). Programming noise, drift exponents and
  /// the hard-fault map are sampled once here, at "program time"; the
  /// spare-column remap and program-verify-reprogram retry loop also run
  /// here, recording their work in fault_stats().
  AnalogTile(const Matrix& w_slice, const TileConfig& cfg, util::Rng rng);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::span<const float> gamma() const { return gamma_; }

  /// One analog MVM. x_hat: normalized inputs [rows] (post-DAC).
  /// x_hat_l2: L2 norm of x_hat (for the aggregated read-noise form).
  /// Accumulates alpha * gamma_j * adc(...) into y[j] (j in [0, cols)).
  /// Returns true if any ADC saturated (drives bound management).
  ///
  /// Thread-safe form: all mutable state is caller-owned — noise draws
  /// come from `rng` (and `abft_rng` for the checksum read; required
  /// when ABFT is enabled), counters accumulate into `counters`, and
  /// `scratch` provides the reusable noise-prefill buffer. Concurrent
  /// calls on the same tile are safe as long as each supplies its own
  /// arguments.
  bool mvm(std::span<const float> x_hat, float x_hat_l2, float alpha,
           std::span<float> y, util::Rng& rng, util::Rng* abft_rng,
           TileRunCounters& counters, TileMvmScratch& scratch) const;

  /// Sequential convenience form: draws the checksum read from the
  /// tile's own dedicated stream and updates the member counters
  /// directly. Not safe for concurrent calls on the same tile.
  bool mvm(std::span<const float> x_hat, float x_hat_l2, float alpha,
           std::span<float> y, util::Rng& rng);

  /// Fold one work item's counters into the tile (deterministic
  /// reduction step of the parallel forward).
  void add_run_counters(const TileRunCounters& c);

  /// Re-derive the effective conductances at read time t seconds after
  /// programming (PCM drift + global compensation). t = 0 restores the
  /// as-programmed state.
  void set_read_time(float t_seconds);

  /// ADC saturation statistics since construction or the last
  /// reset_stats() call.
  std::int64_t adc_reads() const { return adc_reads_; }
  std::int64_t adc_saturations() const { return adc_saturations_; }
  /// Zero the runtime (ADC) counters. Program-time fault/repair stats
  /// are immutable facts about the tile and are not cleared.
  void reset_stats();

  /// Program-time fault and repair record (all zeros for a fault-free
  /// configuration).
  const faults::TileRepairStats& fault_stats() const { return fault_stats_; }

  // --- runtime integrity (ABFT checksum column) ---
  bool abft_enabled() const { return cfg_.abft_checksum; }
  /// Checksum residual statistics since construction / reset_stats().
  const AbftStats& abft_stats() const { return abft_; }

  /// Transient single-event upset: overwrite the conductance currently
  /// read at logical (col j, row k). Cleared by the next set_read_time
  /// (an analog re-read re-derives the effective state).
  void upset_device(std::int64_t j, std::int64_t k, float value);
  /// Permanent wear: the physical device sticks at `value`. Survives
  /// re-reads and drift updates; only reconstructing the tile (a refresh
  /// onto healthy hardware) clears it — the runtime refresh path replays
  /// wear because reprogramming cannot fix broken silicon.
  void wear_stuck(std::int64_t j, std::int64_t k, float value);

 private:
  /// Force the stuck conductances of every mapped physical column.
  void force_faults(Matrix& w_hat_t) const;
  /// Re-apply recorded wear faults (after drift re-derives the state).
  void force_wear(Matrix& w_hat_t) const;
  /// Gamma-folded column-sum signature of the given conductances.
  std::vector<double> abft_signature(const Matrix& w_hat_t) const;
  /// One checksum-column read + comparison against the signature.
  void abft_check(std::span<const float> x_hat, float x_hat_l2, float alpha,
                  util::Rng& abft_rng, AbftStats& out) const;
  /// Effective read-noise std at the current read time (short-term
  /// cycle-to-cycle noise plus the slowly-growing 1/f drift component).
  float read_sigma() const;

  struct WearRecord {
    std::int64_t j = 0, k = 0;
    float value = 0.0f;
  };

  TileConfig cfg_;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<float> gamma_;   // per-column scale
  Matrix w_hat_t_;             // programmed conductances, TRANSPOSED [cols x rows]
  Matrix w_eff_;               // read by mvm at the current read time, [rows x cols]
  Matrix drift_nu_t_;          // per-device drift exponents [cols x rows]
  noise::UniformQuantizer adc_;
  noise::ShortTermReadNoise read_noise_;
  noise::IrDropModel ir_drop_;
  noise::PcmDriftModel drift_;
  TileMvmScratch scratch_buf_;  // scratch for the sequential mvm form
  faults::FaultMap fault_map_;            // physical [cols + spares] x rows
  std::vector<std::int64_t> phys_col_;    // logical column -> physical column
  faults::TileRepairStats fault_stats_;
  std::int64_t adc_reads_ = 0;
  std::int64_t adc_saturations_ = 0;
  float read_time_s_ = 0.0f;          // current read time (drift clock)
  std::vector<WearRecord> wear_;      // permanent post-deployment faults
  // ABFT checksum column: as-programmed signature vs the signature of
  // the currently-read conductances, both in double so an unchanged tile
  // has a residual of exactly zero (no false positives by construction).
  std::vector<double> abft_ref_;
  std::vector<double> abft_eff_;
  float abft_gamma_ = 1.0f;           // checksum column's own gamma
  util::Rng abft_rng_;                // dedicated stream: data path untouched
  AbftStats abft_;
};

}  // namespace nora::cim
