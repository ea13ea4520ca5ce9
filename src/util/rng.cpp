#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/simd.hpp"
#include "util/simd_kernels.hpp"

namespace nora::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t parent, std::string_view label) {
  // FNV-1a over the label, mixed with the parent through splitmix64.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : label) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  std::uint64_t s = parent ^ h;
  return splitmix64(s);
}

std::uint64_t derive_stream(std::uint64_t base, std::uint64_t a,
                            std::uint64_t b, std::uint64_t c) {
  // Chained splitmix64 absorption: each coordinate passes through a full
  // mixing round, so adjacent counters (t vs t+1, tile i vs i+1) land in
  // decorrelated streams.
  std::uint64_t s = base;
  s = splitmix64(s) ^ a;
  s = splitmix64(s) ^ b;
  s = splitmix64(s) ^ c;
  return splitmix64(s);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // Use the top 53 bits for a uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_index: n must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

double Rng::gaussian() {
  if (has_cached_gauss_) {
    has_cached_gauss_ = false;
    return cached_gauss_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  // glibc's sincos shares its kernels with sin/cos and returns the same
  // bits for both halves (spot-checked exhaustively in the test suite's
  // golden draws); one call saves a second argument reduction on the
  // analog hot path, where gaussians dominate the noise-injection cost.
  double sin_t = 0.0, cos_t = 0.0;
  ::sincos(theta, &sin_t, &cos_t);
  cached_gauss_ = r * sin_t;
  has_cached_gauss_ = true;
  return r * cos_t;
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

void Rng::box_muller_pairs(double* out, std::size_t pairs) {
  // Three passes over one batch. Every output is the same glibc call on
  // the same input as in gaussian(); only the order of the independent
  // sincos calls changes. glibc's sincos branches on the angle's range
  // and quadrant, and Box-Muller feeds it uniformly random angles, so
  // in draw order those branches mispredict often. Called in counting-
  // sort order of the angle's bucket, neighbouring calls take the same
  // branches.
  constexpr std::size_t kPairs = kFillBatch / 2;
  // Measured at 64 pairs, ns per pair: 8 buckets 25.8, 16 28.6,
  // 32 25.0, 64 24.8, 128 25.7 (draw order: 35.1).
  constexpr int kAngleBuckets = 32;
  double r[kPairs], u2[kPairs], sin_t[kPairs], cos_t[kPairs];
  std::uint8_t order[kPairs];
  static_assert(kPairs <= 256, "order[] holds 8-bit pair indices");
  int start[kAngleBuckets + 1] = {};
  // 1. Uniforms in draw order (u1 with its rejection, then u2), exactly
  //    as gaussian() consumes them, and the radius of each pair.
  for (std::size_t j = 0; j < pairs; ++j) {
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 1e-300);
    u2[j] = uniform();
    r[j] = std::sqrt(-2.0 * std::log(u1));
    ++start[static_cast<int>(u2[j] * kAngleBuckets) + 1];
  }
  // 2. sincos in bucket order (stable within a bucket).
  for (int b = 0; b < kAngleBuckets; ++b) start[b + 1] += start[b];
  for (std::size_t j = 0; j < pairs; ++j) {
    order[start[static_cast<int>(u2[j] * kAngleBuckets)]++] =
        static_cast<std::uint8_t>(j);
  }
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::size_t j = order[k];
    const double theta = 2.0 * M_PI * u2[j];
    ::sincos(theta, &sin_t[j], &cos_t[j]);  // same bits as sin/cos
  }
  // 3. The pairs in draw order: cos draw first, sin draw after — the
  //    same two values, in the same order, as two sequential gaussian()
  //    calls (the second of which would have come from the cache).
  for (std::size_t j = 0; j < pairs; ++j) {
    out[2 * j] = r[j] * cos_t[j];
    out[2 * j + 1] = r[j] * sin_t[j];
  }
}

void Rng::gaussian_fill(std::span<double> out) {
  std::size_t i = 0;
  const std::size_t n = out.size();
  // Drain the cached second Box-Muller draw first, exactly like a
  // gaussian() call would.
  if (i < n && has_cached_gauss_) {
    has_cached_gauss_ = false;
    out[i++] = cached_gauss_;
  }
  while (i + 1 < n) {
    const std::size_t pairs = std::min(kFillBatch / 2, (n - i) / 2);
    box_muller_pairs(out.data() + i, pairs);
    i += 2 * pairs;
  }
  // Odd tail: one more pair, sin half left in the cache for the next
  // draw — identical end state to the sequential call sequence.
  if (i < n) out[i] = gaussian();
}

void Rng::gaussian_fill(std::span<float> out, double mean, double stddev) {
  std::size_t i = 0;
  const std::size_t n = out.size();
  if (i < n && has_cached_gauss_) {
    has_cached_gauss_ = false;
    out[i++] = static_cast<float>(mean + stddev * cached_gauss_);
  }
  // Generate raw standard normals a batch at a time, then scale/convert
  // through the dispatched kernel. The raw pair values (r*cos, r*sin) are
  // the identical single-rounded products the fused expression formed, and
  // the convert is the fma the compiler contracts `mean + stddev*g` into,
  // so batching changes no output bit on either dispatch path.
  double raw[kFillBatch];
  while (i + 1 < n) {
    const std::size_t m = std::min(kFillBatch, ((n - i) / 2) * 2);
    box_muller_pairs(raw, m / 2);
    if (simd::use_avx2()) {
      simd::scale_convert_avx2(out.data() + i, raw, m, mean, stddev);
    } else {
      for (std::size_t p = 0; p < m; ++p) {
        out[i + p] = static_cast<float>(std::fma(stddev, raw[p], mean));
      }
    }
    i += m;
  }
  if (i < n) out[i] = static_cast<float>(gaussian(mean, stddev));
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::split(std::string_view label) const {
  return Rng(derive_seed(seed_, label));
}

}  // namespace nora::util
