// Tests for the deterministic RNG substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace nora::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexBoundsAndCoverage) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_index(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all buckets hit
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, GaussianMoments) {
  Rng rng(10);
  const int n = 50000;
  double sum = 0.0, sq = 0.0, quad = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
    quad += g * g * g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
  EXPECT_NEAR(quad / n, 3.0, 0.15);  // Gaussian kurtosis (non-excess)
}

TEST(Rng, GaussianMeanStddev) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian(5.0, 2.0);
    sum += g;
    sq += (g - 5.0) * (g - 5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / n), 2.0, 0.05);
}

TEST(Rng, BernoulliRate) {
  Rng rng(12);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  Rng parent(99);
  Rng a = parent.split("alpha");
  Rng b = parent.split("beta");
  Rng a2 = Rng(99).split("alpha");
  int same_ab = 0;
  for (int i = 0; i < 64; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, a2.next_u64());  // label-stable
    same_ab += va == b.next_u64();
  }
  EXPECT_LT(same_ab, 2);
}

TEST(Rng, DeriveSeedLabelSensitive) {
  EXPECT_NE(derive_seed(1, "x"), derive_seed(1, "y"));
  EXPECT_NE(derive_seed(1, "x"), derive_seed(2, "x"));
  EXPECT_EQ(derive_seed(5, "tile-0"), derive_seed(5, "tile-0"));
}

// The batched fill is the analog hot path's replacement for per-draw
// gaussian() calls; bit-identity with the sequential sequence — cache
// semantics included — is what keeps every golden output unchanged.
// The fill makes its pairs kFillBatch draws at a time and calls sincos
// in angle order, so the counts straddle the batch, and a sweep of
// seeds at 128 draws (one 64-column tile pass) reaches every angle
// bucket and both sides of libm's log branch near 1.
TEST(Rng, GaussianFillMatchesSequentialDrawsBitForBit) {
  constexpr std::size_t b = Rng::kFillBatch;
  const auto check = [](std::uint64_t seed, std::size_t n) {
    Rng seq(seed), fill(seed);
    std::vector<double> want(n), got(n);
    for (auto& v : want) v = seq.gaussian();
    fill.gaussian_fill(got);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i], got[i]) << "seed " << seed << " n " << n << " i " << i;
    }
    // End state identical too: the next draws must agree (this is what
    // proves the odd-count leftover stays in the cache).
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(seq.gaussian(), fill.gaussian()) << "seed " << seed << " n " << n;
    }
  };
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{7}, std::size_t{64},
                              b - 1, b, b + 1, 2 * b + 3, std::size_t{1001}}) {
    check(321, n);
    if (HasFatalFailure()) return;
  }
  for (std::uint64_t seed = 0; seed < 1000 && !HasFatalFailure(); ++seed) {
    check(seed, 128);
  }
}

TEST(Rng, GaussianFillInterleavesWithSingleDraws) {
  // fills and single draws in any mixture == one long single-draw run.
  Rng seq(777), mix(777);
  std::vector<double> ref(1 + 3 + 1 + 4 + 5);
  for (auto& v : ref) v = seq.gaussian();
  std::size_t i = 0;
  std::vector<double> buf;
  ASSERT_EQ(ref[i++], mix.gaussian());  // cache now populated
  buf.assign(3, 0.0);
  mix.gaussian_fill(buf);  // consumes the cached draw first
  for (double v : buf) ASSERT_EQ(ref[i++], v);
  ASSERT_EQ(ref[i++], mix.gaussian());
  buf.assign(4, 0.0);
  mix.gaussian_fill(buf);
  for (double v : buf) ASSERT_EQ(ref[i++], v);
  buf.assign(5, 0.0);
  mix.gaussian_fill(buf);
  for (double v : buf) ASSERT_EQ(ref[i++], v);
}

TEST(Rng, ScaledGaussianFillMatchesSequentialScaledDraws) {
  constexpr std::size_t b = Rng::kFillBatch;
  const auto check = [](std::uint64_t seed, std::size_t n) {
    Rng seq(seed), fill(seed);
    seq.gaussian();   // leave a cached second draw behind
    fill.gaussian();
    std::vector<float> want(n), got(n);
    for (auto& v : want) v = static_cast<float>(seq.gaussian(0.25, 1.75));
    fill.gaussian_fill(got, 0.25, 1.75);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i], got[i]) << "seed " << seed << " n " << n << " i " << i;
    }
    ASSERT_EQ(seq.gaussian(), fill.gaussian()) << "seed " << seed << " n " << n;
  };
  // With the cached draw consumed first, n = b + 1 leaves exactly one
  // full batch, and n = b, b + 2 fall one pair short of or past it.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{9},
                              std::size_t{128}, b - 1, b, b + 1, b + 2,
                              2 * b + 3}) {
    check(55, n);
    if (HasFatalFailure()) return;
  }
  for (std::uint64_t seed = 0; seed < 1000 && !HasFatalFailure(); ++seed) {
    check(seed, 128);
  }
}

}  // namespace
}  // namespace nora::util
