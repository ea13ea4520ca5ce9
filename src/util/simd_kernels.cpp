#include "util/simd_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace nora::util::simd {

#if defined(__AVX2__) && defined(__FMA__)

namespace {

// Lane mask selecting the first r (1..4) of four floats.
inline __m128i first_lanes(std::size_t r) {
  alignas(16) static const std::int32_t kMask[8] = {-1, -1, -1, -1,
                                                    0,  0,  0,  0};
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(kMask + 4 - r));
}

// Chunk l (four floats) of a kL-chunk pass. In a masked pass the last
// chunk touches only its `mask`-selected lanes (the others load as zero),
// so a ragged tail never reads or writes past the tile's last column.
template <int kL, bool kMasked>
inline __m128 load_chunk(const float* row, int l, __m128i mask) {
  if (kMasked && l + 1 == kL) return _mm_maskload_ps(row + 4 * l, mask);
  return _mm_loadu_ps(row + 4 * l);
}
template <int kL, bool kMasked>
inline void store_sums(float* out, const __m256d* s, __m128i mask) {
  for (int l = 0; l < kL; ++l) {
    const __m128 v = _mm256_cvtpd_ps(s[l]);
    if (kMasked && l + 1 == kL) {
      _mm_maskstore_ps(out + 4 * l, mask, v);
    } else {
      _mm_storeu_ps(out + 4 * l, v);
    }
  }
}

// Runs pass.template operator()<chunks, masked>(j, width) over columns
// [0, m): full sixteen-column passes of four 4-lane chunks, then one
// pass of ceil(rem / 4) chunks whose last chunk is masked to the
// remaining lanes.
template <class Pass>
inline void column_passes(std::size_t m, Pass&& pass) {
  std::size_t j = 0;
  for (; j + 16 <= m; j += 16) pass.template operator()<4, false>(j, 16);
  switch (const std::size_t rem = m - j; (rem + 3) / 4) {
    case 0: break;
    case 1: pass.template operator()<1, true>(j, rem); break;
    case 2: pass.template operator()<2, true>(j, rem); break;
    case 3: pass.template operator()<3, true>(j, rem); break;
    default: pass.template operator()<4, true>(j, rem); break;
  }
}

}  // namespace

void mvm_dot_avx2(const float* w, std::size_t ld, std::size_t m,
                  const float* x, std::size_t n, float* out) {
  column_passes(m, [&]<int kL, bool kMasked>(std::size_t j, std::size_t width) {
    const __m128i mask = first_lanes(width - 4 * (kL - 1));
    __m256d s[kL];
    for (int l = 0; l < kL; ++l) s[l] = _mm256_setzero_pd();
    const float* row = w + j;
    for (std::size_t k = 0; k < n; ++k, row += ld) {
      const __m256d xk = _mm256_set1_pd(static_cast<double>(x[k]));
      for (int l = 0; l < kL; ++l) {
        const __m128 wl = load_chunk<kL, kMasked>(row, l, mask);
        s[l] = _mm256_fmadd_pd(_mm256_cvtps_pd(wl), xk, s[l]);
      }
    }
    store_sums<kL, kMasked>(out + j, s, mask);
  });
}

void ir_fused_avx2(const float* w, std::size_t ld, std::size_t m,
                   const float* x, std::size_t n, float kappa, float* out) {
  const __m256d kd = _mm256_set1_pd(static_cast<double>(kappa));
  const __m256d inv_n = _mm256_set1_pd(1.0 / static_cast<double>(n));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  column_passes(m, [&]<int kL, bool kMasked>(std::size_t j, std::size_t width) {
    const __m128i mask = first_lanes(width - 4 * (kL - 1));
    __m256d ca[kL], acc[kL];
    for (int l = 0; l < kL; ++l) {
      ca[l] = _mm256_setzero_pd();
      acc[l] = _mm256_setzero_pd();
    }
    const float* row = w + j;
    for (std::size_t k = 0; k < n; ++k, row += ld) {
      const __m128 xk = _mm_set1_ps(x[k]);
      for (int l = 0; l < kL; ++l) {
        const __m128 wl = load_chunk<kL, kMasked>(row, l, mask);
        // One lane step of the scalar recurrence (see header for the op
        // map); |c| is exact in either precision, so it is taken after
        // the one widening conversion.
        const __m256d c = _mm256_cvtps_pd(_mm_mul_ps(wl, xk));
        ca[l] = _mm256_add_pd(ca[l], _mm256_and_pd(c, absmask));
        const __m256d t = _mm256_mul_pd(kd, ca[l]);
        const __m256d factor = _mm256_fnmadd_pd(t, inv_n, one);
        acc[l] = _mm256_fmadd_pd(c, factor, acc[l]);
      }
    }
    store_sums<kL, kMasked>(out + j, acc, mask);
  });
}

namespace {

// (float)fma(stddev, g, 0.0) for eight draws held as two 4-wide halves.
inline __m256 scaled_draws(__m256d sd, __m256d lo, __m256d hi) {
  const __m256d zero = _mm256_setzero_pd();
  return _mm256_set_m128(_mm256_cvtpd_ps(_mm256_fmadd_pd(sd, hi, zero)),
                         _mm256_cvtpd_ps(_mm256_fmadd_pd(sd, lo, zero)));
}

}  // namespace

std::int64_t finish_columns_avx2(const float* acc, std::size_t m,
                                 const ColumnEpilogue& e, float* y) {
  const bool adc = e.adc_steps > 0.0f;
  const float half = e.adc_steps / 2.0f;
  const __m256d sd0 = _mm256_set1_pd(e.stddev[0]);
  const __m256d sd1 = _mm256_set1_pd(e.stddev[1]);
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 signmask = _mm256_castsi256_ps(_mm256_set1_epi32(
      static_cast<int>(0x80000000u)));
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 vhalfc = _mm256_set1_ps(0.5f);
  const __m256 vb = _mm256_set1_ps(e.adc_bound);
  const __m256 vh = _mm256_set1_ps(half);
  const __m256 vnh = _mm256_set1_ps(-half);
  const __m256 vh1 = _mm256_set1_ps(half - 1.0f);
  const __m256 va = _mm256_set1_ps(e.alpha);
  const double* g = e.noise;
  std::int64_t saturated = 0;
  std::size_t j = 0;
  for (; j + 8 <= m; j += 8) {
    __m256 a = _mm256_loadu_ps(acc + j);
    if (e.draws == 1) {
      a = _mm256_add_ps(a, scaled_draws(sd0, _mm256_loadu_pd(g + j),
                                        _mm256_loadu_pd(g + j + 4)));
    } else if (e.draws == 2) {
      // Draws are column-interleaved (first, second, first, ...):
      // unpack pairs and restore column order within each half.
      const double* gj = g + 2 * j;
      const __m256d p0 = _mm256_loadu_pd(gj);
      const __m256d p1 = _mm256_loadu_pd(gj + 4);
      const __m256d p2 = _mm256_loadu_pd(gj + 8);
      const __m256d p3 = _mm256_loadu_pd(gj + 12);
      const __m256d f_lo = _mm256_permute4x64_pd(_mm256_unpacklo_pd(p0, p1), 0xD8);
      const __m256d s_lo = _mm256_permute4x64_pd(_mm256_unpackhi_pd(p0, p1), 0xD8);
      const __m256d f_hi = _mm256_permute4x64_pd(_mm256_unpacklo_pd(p2, p3), 0xD8);
      const __m256d s_hi = _mm256_permute4x64_pd(_mm256_unpackhi_pd(p2, p3), 0xD8);
      a = _mm256_add_ps(a, scaled_draws(sd0, f_lo, f_hi));
      a = _mm256_add_ps(a, scaled_draws(sd1, s_lo, s_hi));
    }
    if (adc) {
      const __m256 sat =
          _mm256_cmp_ps(_mm256_and_ps(a, absmask), vb, _CMP_GE_OQ);
      saturated += _mm_popcnt_u32(
          static_cast<unsigned>(_mm256_movemask_ps(sat)));
      const __m256 v = _mm256_mul_ps(_mm256_div_ps(a, vb), vh);
      // round_half_away by trunc and blend (see the DAC kernel: a blend
      // keeps trunc's -0 where an add of +0 would not).
      const __m256 t =
          _mm256_round_ps(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
      const __m256 frac = _mm256_and_ps(_mm256_sub_ps(v, t), absmask);
      const __m256 ge = _mm256_cmp_ps(frac, vhalfc, _CMP_GE_OQ);
      const __m256 sign1 = _mm256_or_ps(one, _mm256_and_ps(v, signmask));
      __m256 q = _mm256_blendv_ps(t, _mm256_add_ps(t, sign1), ge);
      // std::clamp(q, lo, hi) is (q < lo ? lo : hi < q ? hi : q); max/min
      // with the bound first return q itself when it is NaN or -0.
      q = _mm256_max_ps(vnh, q);
      q = _mm256_min_ps(vh1, q);
      a = _mm256_div_ps(_mm256_mul_ps(q, vb), vh);
    }
    const __m256 scale = _mm256_mul_ps(va, _mm256_loadu_ps(e.gamma + j));
    _mm256_storeu_ps(y + j, _mm256_fmadd_ps(scale, a, _mm256_loadu_ps(y + j)));
  }
  for (; j < m; ++j) {
    float a = acc[j];
    for (int d = 0; d < e.draws; ++d) {
      a += static_cast<float>(std::fma(e.stddev[d], g[e.draws * j + d], 0.0));
    }
    if (adc) {
      if (std::fabs(a) >= e.adc_bound) ++saturated;
      // round_half_away without the roundf libcall (bit-equal to it).
      const float v = a / e.adc_bound * half;
      const float t = std::trunc(v);
      float q = std::fabs(v - t) >= 0.5f ? t + std::copysign(1.0f, v) : t;
      q = std::clamp(q, -half, half - 1.0f);
      a = q * e.adc_bound / half;
    }
    y[j] = std::fma(e.alpha * e.gamma[j], a, y[j]);
  }
  return saturated;
}

std::int64_t dac_scale_clip_quantize_avx2(const float* xs, float* out,
                                          std::size_t n, float inv_alpha,
                                          float steps, float bound) {
  const bool quant = steps > 0.0f;
  const float half = steps / 2.0f;
  const __m256 va = _mm256_set1_ps(inv_alpha);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 signmask = _mm256_castsi256_ps(_mm256_set1_epi32(
      static_cast<int>(0x80000000u)));
  const __m256 vb = _mm256_set1_ps(bound);
  const __m256 vh = _mm256_set1_ps(half);
  const __m256 vnh = _mm256_set1_ps(-half);
  const __m256 vh1 = _mm256_set1_ps(half - 1.0f);
  const __m256 vhalfc = _mm256_set1_ps(0.5f);
  std::int64_t clipped = 0;
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(xs + k), va);
    const __m256 clip =
        _mm256_cmp_ps(_mm256_and_ps(v, absmask), one, _CMP_GT_OQ);
    clipped += _mm_popcnt_u32(
        static_cast<unsigned>(_mm256_movemask_ps(clip)));
    // v > 0 ? 1 : -1, branchless: copysign(1, v); only the clipped lanes
    // (|v| > 1, so v != 0) consume it.
    const __m256 sign1 = _mm256_or_ps(one, _mm256_and_ps(v, signmask));
    v = _mm256_blendv_ps(v, sign1, clip);
    if (quant) {
      const __m256 y = _mm256_mul_ps(_mm256_div_ps(v, vb), vh);
      // round-half-away-from-zero: trunc, then +-1 where |frac| >= 0.5.
      const __m256 t =
          _mm256_round_ps(y, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
      const __m256 frac = _mm256_and_ps(_mm256_sub_ps(y, t), absmask);
      const __m256 ge = _mm256_cmp_ps(frac, vhalfc, _CMP_GE_OQ);
      // Blend, don't add-zero: t + (+0) would flip a -0 lane (y in
      // (-0.5, 0] truncates to -0, and -0 + +0 = +0) while the scalar
      // round returns trunc's -0 untouched.
      const __m256 sign1 = _mm256_or_ps(one, _mm256_and_ps(y, signmask));
      __m256 q = _mm256_blendv_ps(t, _mm256_add_ps(t, sign1), ge);
      q = _mm256_max_ps(q, vnh);
      q = _mm256_min_ps(q, vh1);
      v = _mm256_div_ps(_mm256_mul_ps(q, vb), vh);
    }
    _mm256_storeu_ps(out + k, v);
  }
  for (; k < n; ++k) {
    float v = xs[k] * inv_alpha;
    if (std::fabs(v) > 1.0f) {
      ++clipped;
      v = v > 0.0f ? 1.0f : -1.0f;
    }
    if (quant) {
      float q = std::round(v / bound * half);
      q = std::clamp(q, -half, half - 1.0f);
      v = q * bound / half;
    }
    out[k] = v;
  }
  return clipped;
}

void add_scaled_gaussian_avx2(float* v, const double* raw, std::size_t n,
                              double stddev) {
  const __m256d sd = _mm256_set1_pd(stddev);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d term = _mm256_fmadd_pd(sd, _mm256_loadu_pd(raw + k), zero);
    _mm_storeu_ps(v + k,
                  _mm_add_ps(_mm_loadu_ps(v + k), _mm256_cvtpd_ps(term)));
  }
  for (; k < n; ++k) {
    v[k] += static_cast<float>(std::fma(stddev, raw[k], 0.0));
  }
}

void scale_convert_avx2(float* dst, const double* raw, std::size_t n,
                        double mean, double stddev) {
  const __m256d sd = _mm256_set1_pd(stddev);
  const __m256d mu = _mm256_set1_pd(mean);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm_storeu_ps(dst + k, _mm256_cvtpd_ps(_mm256_fmadd_pd(
                               sd, _mm256_loadu_pd(raw + k), mu)));
  }
  for (; k < n; ++k) {
    dst[k] = static_cast<float>(std::fma(stddev, raw[k], mean));
  }
}

#else  // !(__AVX2__ && __FMA__)

// util::simd::active() never returns kAvx2 in a build without AVX2+FMA,
// so these are unreachable; they exist to keep the link uniform.
void mvm_dot_avx2(const float*, std::size_t, std::size_t, const float*,
                  std::size_t, float*) {
  std::abort();
}
void ir_fused_avx2(const float*, std::size_t, std::size_t, const float*,
                   std::size_t, float, float*) {
  std::abort();
}
std::int64_t finish_columns_avx2(const float*, std::size_t,
                                 const ColumnEpilogue&, float*) {
  std::abort();
}
std::int64_t dac_scale_clip_quantize_avx2(const float*, float*, std::size_t,
                                          float, float, float) {
  std::abort();
}
void add_scaled_gaussian_avx2(float*, const double*, std::size_t, double) {
  std::abort();
}
void scale_convert_avx2(float*, const double*, std::size_t, double, double) {
  std::abort();
}

#endif

}  // namespace nora::util::simd
