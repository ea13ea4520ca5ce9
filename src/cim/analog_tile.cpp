#include "cim/analog_tile.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/simd.hpp"
#include "util/simd_kernels.hpp"

namespace nora::cim {

AnalogTile::AnalogTile(const Matrix& w_slice, const TileConfig& cfg,
                       util::Rng rng)
    : cfg_(cfg),
      rows_(w_slice.rows()),
      cols_(w_slice.cols()),
      adc_(cfg.adc_steps(), cfg.adc_bound),
      read_noise_(cfg.w_noise),
      ir_drop_(cfg.ir_drop, static_cast<int>(w_slice.rows())),
      drift_(cfg.drift) {
  if (rows_ == 0 || cols_ == 0) {
    throw std::invalid_argument("AnalogTile: empty weight slice");
  }
  // Per-column scale gamma_j = max|w_j| (Eq. 4); zero columns map to 1 so
  // the normalized weights stay finite (their outputs are exactly zero).
  gamma_.assign(static_cast<std::size_t>(cols_), 0.0f);
  for (std::int64_t k = 0; k < rows_; ++k) {
    const auto row = w_slice.row(k);
    for (std::int64_t j = 0; j < cols_; ++j) {
      gamma_[static_cast<std::size_t>(j)] =
          std::max(gamma_[static_cast<std::size_t>(j)], std::fabs(row[j]));
    }
  }
  for (auto& g : gamma_) {
    if (g == 0.0f) g = 1.0f;
  }
  // Store the conductances transposed so each column's weights are
  // contiguous for the per-column MVM loop.
  w_hat_t_ = Matrix(cols_, rows_);
  for (std::int64_t k = 0; k < rows_; ++k) {
    for (std::int64_t j = 0; j < cols_; ++j) {
      w_hat_t_.at(j, k) = w_slice.at(k, j) / gamma_[static_cast<std::size_t>(j)];
    }
  }
  // Program-time non-idealities, sampled exactly once.
  if (cfg_.device == DeviceKind::kReramQuantized) {
    // Discrete conductance levels, bit-sliced over multiple cells:
    // effective precision = bits_per_cell * cells_per_weight bits.
    const int total_bits = cfg_.reram_bits_per_cell * cfg_.reram_cells_per_weight;
    if (total_bits <= 0 || total_bits > 16) {
      throw std::invalid_argument("AnalogTile: ReRAM precision out of range");
    }
    const noise::UniformQuantizer grid(static_cast<float>(1 << total_bits), 1.0f);
    float* p = w_hat_t_.data();
    for (std::int64_t i = 0; i < w_hat_t_.size(); ++i) p[i] = grid.quantize(p[i]);
  }
  // Hard faults: sampled over the physical geometry (logical columns
  // plus spares) from a dedicated child stream, so fault-free configs
  // leave every existing RNG stream untouched.
  if (cfg_.spare_cols < 0) {
    throw std::invalid_argument("AnalogTile: spare_cols must be >= 0");
  }
  const std::int64_t phys_cols = cols_ + cfg_.spare_cols;
  fault_stats_.devices = rows_ * cols_;
  fault_stats_.physical_devices = rows_ * phys_cols;
  fault_stats_.spare_cols = cfg_.spare_cols;
  phys_col_.resize(static_cast<std::size_t>(cols_));
  std::iota(phys_col_.begin(), phys_col_.end(), std::int64_t{0});
  if (cfg_.faults.any()) {
    util::Rng fault_rng = rng.split("faults");
    fault_map_ =
        faults::FaultMap::sample(rows_, phys_cols, cfg_.faults, fault_rng);
    fault_stats_.faulty_devices = fault_map_.faulty_total();
    fault_stats_.stuck_zero = fault_map_.stuck_zero_count();
    fault_stats_.stuck_gmax = fault_map_.stuck_gmax_count();
    fault_stats_.dead_rows = fault_map_.dead_rows();
    fault_stats_.dead_cols = fault_map_.dead_cols();
    fault_stats_.tile_dead = fault_map_.tile_dead();
    // Spare-column remap: move the worst logical columns onto the
    // cleanest spares (a remap must strictly improve the column).
    if (cfg_.spare_cols > 0 && !fault_map_.tile_dead()) {
      std::vector<bool> spare_used(static_cast<std::size_t>(cfg_.spare_cols),
                                   false);
      for (std::int64_t j = 0; j < cols_; ++j) {
        const double density = fault_map_.column_fault_fraction(j);
        if (density <= cfg_.spare_remap_threshold) continue;
        std::int64_t best = -1;
        double best_density = density;
        for (std::int64_t sp = 0; sp < cfg_.spare_cols; ++sp) {
          if (spare_used[static_cast<std::size_t>(sp)]) continue;
          const double d = fault_map_.column_fault_fraction(cols_ + sp);
          if (d < best_density) {
            best = sp;
            best_density = d;
          }
        }
        if (best >= 0) {
          spare_used[static_cast<std::size_t>(best)] = true;
          phys_col_[static_cast<std::size_t>(j)] = cols_ + best;
          ++fault_stats_.cols_remapped;
        }
      }
    }
    for (std::int64_t j = 0; j < cols_; ++j) {
      fault_stats_.residual_faulty +=
          fault_map_.faulty_in_column(phys_col_[static_cast<std::size_t>(j)]);
    }
  }

  const noise::ProgrammingNoise prog(cfg_.prog_noise_scale);
  // Keep the targets around only if the verify loop needs them.
  const bool verify = cfg_.max_program_retries > 0 && prog.enabled();
  std::vector<float> targets;
  if (verify) {
    targets.assign(w_hat_t_.data(), w_hat_t_.data() + w_hat_t_.size());
  }
  util::Rng prog_rng = rng.split("programming");
  prog.apply(w_hat_t_, prog_rng, cfg_.write_verify_iters);
  force_faults(w_hat_t_);
  if (verify) {
    // Program-verify-reprogram [Mackin'22-style closed loop]: read each
    // device back, and while it is outside the acceptance band, issue
    // another programming attempt. Stuck devices never converge — they
    // burn their retry budget and are recorded as verify failures.
    util::Rng verify_rng = rng.split("verify");
    float* p = w_hat_t_.data();
    for (std::int64_t j = 0; j < cols_; ++j) {
      const std::int64_t pc = phys_col_[static_cast<std::size_t>(j)];
      for (std::int64_t k = 0; k < rows_; ++k) {
        const std::int64_t i = j * rows_ + k;
        const bool stuck =
            !fault_map_.empty() &&
            fault_map_.at(pc, k) != faults::DeviceFault::kNone;
        if (stuck) {
          fault_stats_.reprogram_rounds += cfg_.max_program_retries;
          if (std::fabs(p[i] - targets[static_cast<std::size_t>(i)]) >
              cfg_.program_tolerance) {
            ++fault_stats_.verify_failures;
          }
          continue;
        }
        const float target = targets[static_cast<std::size_t>(i)];
        int r = 0;
        while (std::fabs(p[i] - target) > cfg_.program_tolerance &&
               r < cfg_.max_program_retries) {
          p[i] = target + prog.correct(p[i] - target, target, verify_rng);
          ++r;
        }
        if (r > 0) {
          ++fault_stats_.reprogram_devices;
          fault_stats_.reprogram_rounds += r;
        }
        if (std::fabs(p[i] - target) > cfg_.program_tolerance) {
          ++fault_stats_.verify_failures;
        }
      }
    }
  }
  if (cfg_.drift_enabled) {
    util::Rng drift_rng = rng.split("drift");
    drift_nu_t_ = drift_.sample_exponents(cols_, rows_, drift_rng);
  }
  w_eff_ = w_hat_t_.transposed();
  if (cfg_.abft_checksum) {
    // The checksum column is programmed after repair/verify completes, so
    // the as-programmed signature absorbs programming noise, stuck-at
    // faults and spare remapping: only *post-programming* change flags.
    abft_rng_ = rng.split("abft");
    abft_ref_ = abft_signature(w_hat_t_);
    abft_eff_ = abft_ref_;
    abft_gamma_ = 1.0f;
    for (double c : abft_ref_) {
      abft_gamma_ = std::max(abft_gamma_, static_cast<float>(std::fabs(c)));
    }
  }
}

std::vector<double> AnalogTile::abft_signature(const Matrix& w_hat_t) const {
  std::vector<double> sig(static_cast<std::size_t>(rows_), 0.0);
  for (std::int64_t j = 0; j < cols_; ++j) {
    const float* wcol = w_hat_t.data() + j * rows_;
    const double gamma = gamma_[static_cast<std::size_t>(j)];
    for (std::int64_t k = 0; k < rows_; ++k) {
      sig[static_cast<std::size_t>(k)] += gamma * wcol[k];
    }
  }
  return sig;
}

void AnalogTile::force_faults(Matrix& w_hat_t) const {
  if (fault_map_.empty()) return;
  for (std::int64_t j = 0; j < cols_; ++j) {
    fault_map_.apply_to_column(phys_col_[static_cast<std::size_t>(j)],
                               w_hat_t.row(j));
  }
}

void AnalogTile::force_wear(Matrix& w_hat_t) const {
  for (const WearRecord& w : wear_) w_hat_t.at(w.j, w.k) = w.value;
}

void AnalogTile::reset_stats() {
  adc_reads_ = 0;
  adc_saturations_ = 0;
  abft_ = AbftStats{};
}

void AnalogTile::set_read_time(float t_seconds) {
  read_time_s_ = t_seconds;
  // The read-time state is derived in the programmed (transposed) layout
  // and order, then transposed once into the row-major layout mvm reads.
  Matrix drifted;
  const Matrix* eff = &w_hat_t_;
  if (cfg_.drift_enabled && t_seconds > 0.0f) {
    drifted = w_hat_t_;
    drift_.apply(drifted, drift_nu_t_, t_seconds);
    // Stuck devices are pinned at their defect conductance; drift acts
    // only on working devices.
    force_faults(drifted);
    force_wear(drifted);
    eff = &drifted;
  }
  // The re-read re-derives the effective state, clearing transient
  // upsets; the checksum signature follows the devices it sums.
  if (cfg_.abft_checksum) abft_eff_ = abft_signature(*eff);
  w_eff_ = eff->transposed();
}

void AnalogTile::upset_device(std::int64_t j, std::int64_t k, float value) {
  if (j < 0 || j >= cols_ || k < 0 || k >= rows_) {
    throw std::invalid_argument("AnalogTile::upset_device: out of range");
  }
  const float old = w_eff_.at(k, j);
  w_eff_.at(k, j) = value;
  if (cfg_.abft_checksum) {
    abft_eff_[static_cast<std::size_t>(k)] +=
        double(gamma_[static_cast<std::size_t>(j)]) * (double(value) - old);
  }
}

void AnalogTile::wear_stuck(std::int64_t j, std::int64_t k, float value) {
  if (j < 0 || j >= cols_ || k < 0 || k >= rows_) {
    throw std::invalid_argument("AnalogTile::wear_stuck: out of range");
  }
  wear_.push_back({j, k, value});
  w_hat_t_.at(j, k) = value;  // persists across re-reads and drift updates
  upset_device(j, k, value);  // and takes effect immediately
}

float AnalogTile::read_sigma() const {
  const float sigma = read_noise_.sigma();
  if (!cfg_.drift_enabled) return sigma;
  const float sigma_1f = drift_.read_noise_sigma(read_time_s_);
  if (sigma_1f <= 0.0f) return sigma;
  // 1/f read noise grows slowly with time since programming; it adds in
  // quadrature with the short-term cycle-to-cycle component.
  return std::sqrt(sigma * sigma + sigma_1f * sigma_1f);
}

bool AnalogTile::mvm(std::span<const float> x_hat, float x_hat_l2, float alpha,
                     std::span<float> y, util::Rng& rng, util::Rng* abft_rng,
                     TileRunCounters& counters, TileMvmScratch& scratch) const {
  if (static_cast<std::int64_t>(x_hat.size()) != rows_ ||
      static_cast<std::int64_t>(y.size()) != cols_) {
    throw std::invalid_argument("AnalogTile::mvm: size mismatch");
  }
  if (cfg_.abft_checksum && abft_rng == nullptr) {
    throw std::invalid_argument("AnalogTile::mvm: ABFT needs a checksum stream");
  }
  const bool use_ir = ir_drop_.enabled();
  const float sigma_r = read_sigma();
  // Batch the per-column noise draws: the per-column pattern (read noise
  // then output noise, each gated by its config flag) is data-independent,
  // so one gaussian_fill produces exactly the draw sequence the former
  // per-column rng.gaussian calls consumed, in the same order. Scaling a
  // standard normal g as `0.0 + stddev * g` below is the literal
  // expression gaussian(0.0, stddev) evaluates, so every output bit is
  // unchanged. stddev_r keeps the original single-precision
  // sigma_r * x_hat_l2 product before widening, matching the old
  // call-site argument exactly.
  const int draws_per_col =
      (sigma_r > 0.0f ? 1 : 0) + (cfg_.out_noise > 0.0f ? 1 : 0);
  const double* g = nullptr;
  if (draws_per_col > 0) {
    const std::size_t need =
        static_cast<std::size_t>(draws_per_col) * static_cast<std::size_t>(cols_);
    if (scratch.noise.size() < need) scratch.noise.resize(need);
    rng.gaussian_fill(std::span<double>(scratch.noise.data(), need));
    g = scratch.noise.data();
  }
  const double stddev_r = sigma_r * x_hat_l2;
  const double stddev_o = cfg_.out_noise;
  // Column sums first, all into scratch. The conductances are row-major,
  // so the scalar loops read each column at stride `m`; the AVX2 kernels
  // run the identical per-column op sequence (including the compiled FMA
  // contractions) on sixteen adjacent columns per row, so every sum
  // matches the scalar loops bit for bit. Kernel dispatch is resolved
  // once per process.
  const std::size_t n = static_cast<std::size_t>(rows_);
  const std::size_t m = static_cast<std::size_t>(cols_);
  if (scratch.acc.size() < m) scratch.acc.resize(m);
  float* acc = scratch.acc.data();
  const float* w = w_eff_.data();
  const float* x = x_hat.data();
  const bool use_avx2 = util::simd::use_avx2();
  if (use_avx2) {
    if (use_ir) {
      util::simd::ir_fused_avx2(w, m, m, x, n, ir_drop_.kappa(), acc);
    } else {
      util::simd::mvm_dot_avx2(w, m, m, x, n, acc);
    }
  } else {
    // Columns are mutually independent, and one column's accumulation is
    // a serial double-add chain; running four side by side pipelines the
    // chains through the FP units without changing any column's operation
    // sequence — every sum matches the one-column-at-a-time loop.
    std::size_t j = 0;
    if (use_ir) {
      for (; j + 4 <= m; j += 4) {
        ir_drop_.accumulate_columns_fused4(w + j, m, x, n, acc + j);
      }
      for (; j < m; ++j) {
        acc[j] = ir_drop_.accumulate_column_fused(w + j, x, n, m);
      }
    } else {
      for (; j + 4 <= m; j += 4) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          const float* row = w + k * m + j;
          const double xk = x[k];
          s0 += double(row[0]) * xk;
          s1 += double(row[1]) * xk;
          s2 += double(row[2]) * xk;
          s3 += double(row[3]) * xk;
        }
        acc[j] = static_cast<float>(s0);
        acc[j + 1] = static_cast<float>(s1);
        acc[j + 2] = static_cast<float>(s2);
        acc[j + 3] = static_cast<float>(s3);
      }
      for (; j < m; ++j) {
        double s = 0.0;
        for (std::size_t k = 0; k < n; ++k) s += double(w[k * m + j]) * x[k];
        acc[j] = static_cast<float>(s);
      }
    }
  }
  // Per-column epilogue: short-term read noise (aggregated, statistically
  // exact) and the system additive output noise, both before the ADC,
  // then quantize and scale into y. The draws were prefilled in column
  // order, and both forms consume them in ascending j.
  std::int64_t saturated = 0;
  if (use_avx2) {
    util::simd::ColumnEpilogue e;
    e.noise = g;
    e.draws = draws_per_col;
    e.stddev[0] = sigma_r > 0.0f ? stddev_r : stddev_o;
    e.stddev[1] = stddev_o;
    e.adc_steps = adc_.steps();
    e.adc_bound = adc_.bound();
    e.alpha = alpha;
    e.gamma = gamma_.data();
    saturated = util::simd::finish_columns_avx2(acc, m, e, y.data());
  } else {
    for (std::size_t j = 0; j < m; ++j) {
      float a = acc[j];
      if (sigma_r > 0.0f) {
        a += static_cast<float>(0.0 + stddev_r * (*g++));
      }
      if (cfg_.out_noise > 0.0f) {
        a += static_cast<float>(0.0 + stddev_o * (*g++));
      }
      if (adc_.saturates(a)) ++saturated;
      a = adc_.quantize(a);
      y[j] += alpha * gamma_[j] * a;
    }
  }
  counters.adc_reads += cols_;
  counters.adc_saturations += saturated;
  if (cfg_.abft_checksum) {
    abft_check(x_hat, x_hat_l2, alpha, *abft_rng, counters.abft);
  }
  return saturated > 0;
}

bool AnalogTile::mvm(std::span<const float> x_hat, float x_hat_l2, float alpha,
                     std::span<float> y, util::Rng& rng) {
  TileRunCounters counters;
  const bool saturated =
      mvm(x_hat, x_hat_l2, alpha, y, rng,
          cfg_.abft_checksum ? &abft_rng_ : nullptr, counters, scratch_buf_);
  add_run_counters(counters);
  return saturated;
}

void AnalogTile::add_run_counters(const TileRunCounters& c) {
  adc_reads_ += c.adc_reads;
  adc_saturations_ += c.adc_saturations;
  abft_.accumulate(c.abft);
}

void AnalogTile::abft_check(std::span<const float> x_hat, float x_hat_l2,
                            float alpha, util::Rng& abft_rng,
                            AbftStats& out) const {
  // Analog read of the checksum column (current effective conductances)
  // against the digital replay of the as-programmed signature. Both
  // sides run the identical accumulation, so an unchanged tile yields a
  // residual of exactly 0.0 — the detector has no float-rounding floor.
  double c = 0.0, d = 0.0;
  for (std::int64_t k = 0; k < rows_; ++k) {
    c += abft_eff_[static_cast<std::size_t>(k)] * x_hat[k];
    d += abft_ref_[static_cast<std::size_t>(k)] * x_hat[k];
  }
  double c_norm = c / abft_gamma_;
  double d_norm = d / abft_gamma_;
  // The checksum read suffers the same converters and noise sources as
  // any data column, drawn from a dedicated stream so the data path is
  // untouched whether or not ABFT is enabled.
  const float sigma_r = read_sigma();
  if (sigma_r > 0.0f || cfg_.out_noise > 0.0f) {
    const double noise_std =
        std::sqrt(double(sigma_r) * sigma_r * x_hat_l2 * x_hat_l2 +
                  double(cfg_.out_noise) * cfg_.out_noise);
    c_norm += abft_rng.gaussian(0.0, noise_std);
  }
  if (adc_.enabled()) {
    // Compare in the converter's output domain: the digital reference is
    // replayed through the same quantize/saturate view, so a checksum
    // read that rails the ADC (the column sums all data columns and can
    // exceed the per-column full scale) rails on BOTH sides and cancels
    // instead of flagging forever.
    c_norm = adc_.quantize(static_cast<float>(c_norm));
    d_norm = adc_.quantize(static_cast<float>(d_norm));
  }
  const double residual = double(alpha) * abft_gamma_ * (c_norm - d_norm);
  // The threshold is calibrated once against the AS-DEPLOYED noise floor
  // (short-term read noise + output noise), not the current read noise:
  // slowly-growing 1/f noise is an aging symptom the watchdog must see,
  // so it is deliberately left out of the tolerance and shows up as
  // excess residual instead.
  const double fresh_sigma = read_noise_.sigma();
  const double fresh_std =
      std::sqrt(fresh_sigma * fresh_sigma * x_hat_l2 * x_hat_l2 +
                double(cfg_.out_noise) * cfg_.out_noise);
  const double threshold =
      double(alpha) * abft_gamma_ *
      (double(cfg_.abft_threshold_sigma) * fresh_std + 0.5 * adc_.step_size());
  ++out.checks;
  const double r = std::fabs(residual);
  out.residual_abs_sum += r;
  out.residual_max = std::max(out.residual_max, r);
  out.ratio_sum += r / std::max(threshold, 1e-30);
  if (r > threshold) ++out.flags;
}

}  // namespace nora::cim
