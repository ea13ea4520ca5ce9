// AVX2+FMA implementations of the analog hot-loop kernels.
//
// Every kernel here is the elementwise vector image of a scalar loop in
// the simulator, including the FMA contractions GCC bakes into the
// scalar -O3 -march=native build (vfmadd/vfnmadd placement read off the
// disassembly of the shipped objects). The callers branch on
// util::simd::use_avx2() and keep their original scalar loops verbatim
// for the other side, so the scalar path is bit-identical by
// construction and the AVX2 path is bit-identical by these kernels'
// contract — enforced by tests/test_simd_kernels.cpp (randomized
// equality against the scalar recurrences) and by the golden-stream
// tests run with NORA_FORCE_SCALAR on and off.
//
// When the build does not target AVX2+FMA the declarations remain but
// the definitions abort; util::simd::active() never selects kAvx2 in
// that configuration, so they are unreachable.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nora::util::simd {

/// Row-major double-precision dot products over the m columns of a
/// [n x ld] float tile: out[j] = (float)acc_j with
///   acc_j = fma((double)w[k*ld + j], (double)x[k], acc_j)   for k = 0..n-1
/// — the loop-carried fma chain of AnalogTile's scalar accumulate, run on
/// sixteen columns per pass (four independent 4-lane chains).
void mvm_dot_avx2(const float* w, std::size_t ld, std::size_t m,
                  const float* x, std::size_t n, float* out);

/// Row-major fused IR-drop accumulate over the m columns of a [n x ld]
/// float tile. Per column j, per row k (exactly the compiled scalar
/// recurrence of IrDropModel::accumulate_column_fused):
///   c      = w[k*ld + j] * x[k]               (float multiply)
///   ca    += fabs((double)c)
///   t      = (double)kappa * ca
///   factor = fnma(t, inv_n, 1.0)              (single-rounded 1 - t*inv_n)
///   acc    = fma((double)c, factor, acc)
/// with inv_n = 1.0 / (double)n. out[j] = (float)acc. Sixteen columns
/// per pass, one float-to-double conversion per four lanes.
void ir_fused_avx2(const float* w, std::size_t ld, std::size_t m,
                   const float* x, std::size_t n, float kappa, float* out);

/// Per-column read-out of one tile MVM, after the column sums.
struct ColumnEpilogue {
  const double* noise = nullptr;  // draws * m standard normals, column-major
  int draws = 0;                  // 0, 1 or 2 draws per column
  double stddev[2] = {0.0, 0.0};  // scale of a column's first / second draw
  float adc_steps = 0.0f;         // 0 disables the ADC
  float adc_bound = 1.0f;
  float alpha = 1.0f;
  const float* gamma = nullptr;   // per-column scale [m]
};

/// The lane image of AnalogTile's scalar per-column epilogue, for
/// j in [0, m):
///   a  = acc[j]; a += (float)fma(stddev[d], noise[draws*j + d], 0.0)
///        for each draw d in order
///   when adc_steps > 0: count |a| >= bound as a saturation, then
///        a = clamp(round_half_away(a / bound * half), -half, half - 1)
///            * bound / half                   (half = adc_steps / 2)
///   y[j] = fma(alpha * gamma[j], a, y[j])
/// Returns the number of saturated columns.
std::int64_t finish_columns_avx2(const float* acc, std::size_t m,
                                 const ColumnEpilogue& e, float* y);

/// DAC input pipeline, vector stage: v = xs[k]*inv_alpha, clip to ±1
/// (counting clips), then — when steps > 0 — the mid-tread quantizer
///   q = round(v / bound * half); q = clamp(q, -half, half-1); v = q*bound/half
/// with half = steps/2 and round() emulated exactly (trunc + half-away
/// adjustment; std::round is correctly rounded, so the emulation is
/// bit-exact). Stores v into out. Returns the clip count.
std::int64_t dac_scale_clip_quantize_avx2(const float* xs, float* out,
                                          std::size_t n, float inv_alpha,
                                          float steps, float bound);

/// v[k] += (float)fma(stddev, raw[k], 0.0) — the additive-input-noise
/// epilogue; the fma-with-zero mirrors the compiled scalar expression
/// `(float)(0.0 + stddev * raw[k])`.
void add_scaled_gaussian_avx2(float* v, const double* raw, std::size_t n,
                              double stddev);

/// dst[k] = (float)fma(stddev, raw[k], mean) — the Gaussian fill
/// scale/convert stage (the compiled form of `(float)(mean + stddev*g)`).
void scale_convert_avx2(float* dst, const double* raw, std::size_t n,
                        double mean, double stddev);

}  // namespace nora::util::simd
