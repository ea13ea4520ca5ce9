// Bit-equality of the AVX2+FMA kernels against their scalar op maps.
//
// Each kernel in util/simd_kernels.hpp documents the exact scalar
// operation sequence it vectorizes (including the FMA contractions the
// compiled scalar build performs). These tests re-state those op maps
// with explicit std::fma — a correctly-rounded single operation, so the
// reference is identical under every optimization level — and demand
// the kernels match bit for bit on randomized inputs spanning several
// magnitudes, plus the ragged tail lengths the masked and scalar tails
// handle.
// The golden-stream suite (run with NORA_FORCE_SCALAR on and off)
// covers the production call sites end to end; this file pins each
// kernel in isolation so a divergence names the broken kernel directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "noise/quantizer.hpp"
#include "util/simd.hpp"
#include "util/simd_kernels.hpp"

namespace nora {
namespace {

bool have_avx2() {
#if defined(__AVX2__) && defined(__FMA__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#define REQUIRE_AVX2()                                         \
  do {                                                         \
    if (!have_avx2()) GTEST_SKIP() << "AVX2+FMA unavailable";  \
  } while (0)

/// Bitwise float equality (EXPECT_EQ on floats treats -0 == +0 and
/// fails on NaN == NaN; kernels must reproduce the exact bits).
::testing::AssertionResult same_bits(float a, float b) {
  std::uint32_t ua, ub;
  std::memcpy(&ua, &a, 4);
  std::memcpy(&ub, &b, 4);
  if (ua == ub) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << ua << ") != " << b << " (0x" << ub
         << ")";
}

std::vector<float> random_floats(std::mt19937& gen, std::size_t n,
                                 float scale) {
  std::uniform_real_distribution<float> dist(-scale, scale);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(gen);
  return v;
}

TEST(RoundHalfAway, MatchesStdRoundEverywhere) {
  using noise::UniformQuantizer;
  const float edge[] = {0.0f,       -0.0f,       0.5f,     -0.5f,
                        1.5f,       -1.5f,       2.5f,     -2.5f,
                        0.49999997f, -0.49999997f, 8388607.5f, -8388607.5f,
                        16777216.0f, -16777216.0f, 1e30f,   -1e30f,
                        1e-30f,     -1e-30f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::denorm_min()};
  for (const float y : edge) {
    const float got = UniformQuantizer::round_half_away(y);
    const float want = std::round(y);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << y;
    } else {
      EXPECT_TRUE(same_bits(got, want)) << "y = " << y;
    }
    // Signed zero must survive (std::round preserves the sign bit).
    if (y == 0.0f) {
      EXPECT_EQ(std::signbit(got), std::signbit(y));
    }
  }
  std::mt19937 gen(123);
  for (const float scale : {1.0f, 64.0f, 1e6f, 1e20f}) {
    for (const float y : random_floats(gen, 4096, scale)) {
      EXPECT_TRUE(same_bits(UniformQuantizer::round_half_away(y),
                            std::round(y)))
          << "y = " << y;
    }
  }
}

// Column counts of the row-major tile kernels: ragged tails of 1, 2 and
// 3 masked lanes past whole chunks, http_short's 16x12 tile, one full
// 16-column pass, lm_head's 26-column tail tile, a Table II 64-column
// tile and a 512-column one.
constexpr std::size_t kColumnCounts[] = {1, 4, 8, 12, 16, 26, 64, 512};

TEST(SimdKernels, RowMajorDotMatchesFmaChain) {
  REQUIRE_AVX2();
  std::mt19937 gen(7);
  for (const std::size_t m : kColumnCounts) {
    for (const std::size_t n : {1u, 5u, 64u}) {
      // A padded leading dimension checks that each row starts at k * ld.
      for (const std::size_t ld : {m, m + 3}) {
        const std::vector<float> w = random_floats(gen, n * ld, 2.0f);
        const std::vector<float> x = random_floats(gen, n, 2.0f);
        // Guard lanes past the m outputs must survive the masked store.
        std::vector<float> out(m + 4, 7.0f);
        util::simd::mvm_dot_avx2(w.data(), ld, m, x.data(), n, out.data());
        for (std::size_t j = 0; j < m; ++j) {
          double acc = 0.0;
          for (std::size_t k = 0; k < n; ++k) {
            acc = std::fma(static_cast<double>(w[k * ld + j]),
                           static_cast<double>(x[k]), acc);
          }
          EXPECT_TRUE(same_bits(out[j], static_cast<float>(acc)))
              << "m " << m << ", n " << n << ", ld " << ld << ", col " << j;
        }
        for (std::size_t j = m; j < m + 4; ++j) EXPECT_EQ(out[j], 7.0f);
      }
    }
  }
}

TEST(SimdKernels, RowMajorIrFusedMatchesScalarRecurrence) {
  REQUIRE_AVX2();
  std::mt19937 gen(11);
  for (const std::size_t m : kColumnCounts) {
    for (const std::size_t n : {1u, 5u, 64u}) {
      const float kappa = 0.05f * 1.0f * (static_cast<float>(n) / 512.0f);
      for (const std::size_t ld : {m, m + 3}) {
        const std::vector<float> w = random_floats(gen, n * ld, 1.0f);
        const std::vector<float> x = random_floats(gen, n, 1.0f);
        std::vector<float> out(m + 4, 7.0f);
        util::simd::ir_fused_avx2(w.data(), ld, m, x.data(), n, kappa,
                                  out.data());
        const double inv_n = 1.0 / static_cast<double>(n);
        for (std::size_t j = 0; j < m; ++j) {
          double ca = 0.0, acc = 0.0;
          for (std::size_t k = 0; k < n; ++k) {
            const float c = w[k * ld + j] * x[k];
            ca += static_cast<double>(std::fabs(c));
            const double t = static_cast<double>(kappa) * ca;
            const double factor = std::fma(-t, inv_n, 1.0);
            acc = std::fma(static_cast<double>(c), factor, acc);
          }
          EXPECT_TRUE(same_bits(out[j], static_cast<float>(acc)))
              << "m " << m << ", n " << n << ", ld " << ld << ", col " << j;
        }
        for (std::size_t j = m; j < m + 4; ++j) EXPECT_EQ(out[j], 7.0f);
      }
    }
  }
}

// Column sums that sit on the converter's edges for bound 12 and 128
// steps (step 0.1875, exact in binary): ±0, exactly ±bound and one ulp
// either side, beyond the rails, ±inf and NaN, and every k + 0.5 tie of
// the rounding.
std::vector<float> adc_edge_values() {
  const float bound = 12.0f;
  std::vector<float> v = {0.0f,
                          -0.0f,
                          bound,
                          -bound,
                          std::nextafter(bound, 0.0f),
                          std::nextafter(-bound, 0.0f),
                          std::nextafter(bound, 100.0f),
                          std::nextafter(-bound, -100.0f),
                          30.0f,
                          -30.0f,
                          1e-30f,
                          -1e-30f,
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()};
  for (int k = -66; k <= 65; ++k) {
    v.push_back((static_cast<float>(k) + 0.5f) * 0.1875f);
  }
  return v;
}

TEST(SimdKernels, ColumnEpilogueMatchesScalarReadOut) {
  REQUIRE_AVX2();
  std::mt19937 gen(13);
  std::normal_distribution<double> nd(0.0, 1.0);
  std::uniform_real_distribution<float> gamma_dist(0.1f, 2.1f);
  const std::vector<float> edges = adc_edge_values();
  for (const std::size_t m : kColumnCounts) {
    for (const int draws : {0, 1, 2}) {
      for (const float steps : {0.0f, 128.0f}) {  // ADC off / 7-bit
        // Every edge value visits every even column in turn, so the
        // vector body and the scalar tail both meet each of them.
        for (std::size_t offset = 0; offset < edges.size(); ++offset) {
          // Random sums spanning the rails, with the edge values laid over
          // the even columns.
          std::vector<float> acc = random_floats(gen, m, 16.0f);
          for (std::size_t j = 0; j < m; j += 2) {
            acc[j] = edges[(j / 2 + offset) % edges.size()];
          }
          // Zero draws keep the edge values on their edges.
          std::vector<double> noise(static_cast<std::size_t>(draws) * m);
          for (std::size_t i = 0; i < noise.size(); ++i) {
            noise[i] = (i / static_cast<std::size_t>(draws)) % 2 == 0
                           ? (i % 3 == 0 ? -0.0 : 0.0)
                           : nd(gen);
          }
          std::vector<float> gamma(m);
          for (auto& g : gamma) g = gamma_dist(gen);
          std::vector<float> y = random_floats(gen, m, 1.0f);
          for (std::size_t j = 0; j < m; j += 5) {
            y[j] = (j % 10 == 0) ? 0.0f : -0.0f;
          }
          std::vector<float> want = y;

          util::simd::ColumnEpilogue e;
          e.noise = noise.data();
          e.draws = draws;
          e.stddev[0] = 0.3;
          e.stddev[1] = 0.04;
          e.adc_steps = steps;
          e.adc_bound = 12.0f;
          e.alpha = 0.7f;
          e.gamma = gamma.data();
          const std::int64_t got_sat =
              util::simd::finish_columns_avx2(acc.data(), m, e, y.data());

          const float half = steps / 2.0f;
          std::int64_t want_sat = 0;
          for (std::size_t j = 0; j < m; ++j) {
            float a = acc[j];
            for (int d = 0; d < draws; ++d) {
              a += static_cast<float>(
                  std::fma(e.stddev[d], noise[draws * j + d], 0.0));
            }
            if (steps > 0.0f) {
              if (std::fabs(a) >= e.adc_bound) ++want_sat;
              float q = noise::UniformQuantizer::round_half_away(
                  a / e.adc_bound * half);
              q = std::clamp(q, -half, half - 1.0f);
              a = q * e.adc_bound / half;
            }
            want[j] = std::fma(e.alpha * gamma[j], a, want[j]);
          }
          EXPECT_EQ(got_sat, want_sat)
              << "m " << m << ", draws " << draws << ", steps " << steps;
          for (std::size_t j = 0; j < m; ++j) {
            EXPECT_TRUE(same_bits(y[j], want[j]))
                << "m " << m << ", draws " << draws << ", steps " << steps
                << ", col " << j << ", sum " << acc[j];
          }
        }
      }
    }
  }
}

TEST(SimdKernels, DacScaleClipQuantizeMatchesScalarPipeline) {
  REQUIRE_AVX2();
  std::mt19937 gen(17);
  const float bound = 1.0f;
  for (const float steps : {0.0f, 128.0f, 100.0f}) {  // off / 7-bit / frac
    for (const std::size_t n : {1u, 8u, 13u, 64u, 255u}) {
      // Scale 3x the clip point so a healthy fraction of lanes clip.
      const std::vector<float> xs = random_floats(gen, n, 3.0f);
      const float inv_alpha = 0.9f;
      std::vector<float> got(n), want(n);
      const std::int64_t clipped = util::simd::dac_scale_clip_quantize_avx2(
          xs.data(), got.data(), n, inv_alpha, steps, bound);
      const float half = steps / 2.0f;
      std::int64_t want_clipped = 0;
      for (std::size_t k = 0; k < n; ++k) {
        float v = xs[k] * inv_alpha;
        if (std::fabs(v) > 1.0f) {
          ++want_clipped;
          v = v > 0.0f ? 1.0f : -1.0f;
        }
        if (steps > 0.0f) {
          float q = noise::UniformQuantizer::round_half_away(
              v / bound * half);
          q = std::clamp(q, -half, half - 1.0f);
          v = q * bound / half;
        }
        want[k] = v;
      }
      EXPECT_EQ(clipped, want_clipped) << "steps " << steps << ", n " << n;
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_TRUE(same_bits(got[k], want[k]))
            << "steps " << steps << ", n " << n << ", k " << k;
      }
    }
  }
}

TEST(SimdKernels, GaussianEpiloguesMatchFmaForms) {
  REQUIRE_AVX2();
  std::mt19937 gen(23);
  std::normal_distribution<double> nd(0.0, 1.0);
  for (const std::size_t n : {1u, 4u, 6u, 64u, 129u}) {
    std::vector<double> raw(n);
    for (auto& r : raw) r = nd(gen);
    // add_scaled_gaussian: v[k] += (float)fma(stddev, raw[k], 0.0)
    std::vector<float> v = random_floats(gen, n, 1.0f);
    std::vector<float> want = v;
    const double stddev = 0.02;
    util::simd::add_scaled_gaussian_avx2(v.data(), raw.data(), n, stddev);
    for (std::size_t k = 0; k < n; ++k) {
      want[k] += static_cast<float>(std::fma(stddev, raw[k], 0.0));
      EXPECT_TRUE(same_bits(v[k], want[k])) << "n " << n << ", k " << k;
    }
    // scale_convert: dst[k] = (float)fma(stddev, raw[k], mean)
    std::vector<float> dst(n);
    util::simd::scale_convert_avx2(dst.data(), raw.data(), n, 0.5, 1.7);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_TRUE(same_bits(dst[k],
                            static_cast<float>(std::fma(1.7, raw[k], 0.5))))
          << "n " << n << ", k " << k;
    }
  }
}

TEST(SimdDispatch, ActiveIsaIsStableAndNamed) {
  const util::simd::Isa isa = util::simd::active();
  EXPECT_EQ(isa, util::simd::active());  // resolved once, then cached
  const char* name = util::simd::isa_name(isa);
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(std::string(name) == "scalar" || std::string(name) == "avx2");
  if (isa == util::simd::Isa::kAvx2) {
    EXPECT_TRUE(have_avx2());
  }
}

}  // namespace
}  // namespace nora
