// Deterministic random number generation for the whole project.
//
// Every stochastic component in the simulator (noise injection, weight
// initialization, dataset synthesis) draws from an explicitly seeded
// xoshiro256** stream so that runs are bit-for-bit reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace nora::util {

/// splitmix64: used to expand a single 64-bit seed into the 256-bit
/// xoshiro state, and as a convenient stateless hash for seed derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// Derive a child seed from a parent seed and a label, so independent
/// subsystems ("weights", "dac-noise", ...) get decorrelated streams.
std::uint64_t derive_seed(std::uint64_t parent, std::string_view label);

/// Counter-based stream derivation (Philox-style keying): map a base
/// seed plus up to three 64-bit work-item coordinates onto an
/// independent child seed, statelessly. This is what makes the parallel
/// analog forward bit-identical for any thread count: every
/// (stream, token, row-block/tile) work item seeds its own Rng from its
/// coordinates instead of consuming a shared sequential stream.
std::uint64_t derive_stream(std::uint64_t base, std::uint64_t a,
                            std::uint64_t b = 0, std::uint64_t c = 0);

/// xoshiro256** PRNG (Blackman & Vigna). Fast, high quality, tiny state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal (Box-Muller, cached second draw).
  double gaussian();

  /// Normal with the given mean / standard deviation.
  double gaussian(double mean, double stddev);

  /// Draws per batched Box-Muller pass of gaussian_fill: whole pairs are
  /// made at most this many draws at a time.
  static constexpr std::size_t kFillBatch = 256;

  /// Batched standard normals: fills `out` with EXACTLY the sequence
  /// out.size() successive gaussian() calls would produce — including
  /// the Box-Muller pair cache, which is consumed first and left
  /// populated when the total draw count is odd. Interleaving fills and
  /// single draws is therefore bit-identical to an all-single-draw
  /// sequence. The fill makes its pairs in batches and calls sincos in
  /// angle order rather than draw order: the same calls on the same
  /// inputs, so the same bits, only faster (DESIGN.md §9).
  void gaussian_fill(std::span<double> out);

  /// Batched scaled draws: equivalent to
  ///   for (auto& v : out) v = static_cast<float>(gaussian(mean, stddev));
  /// bit for bit (same draws, same double arithmetic, same rounding).
  void gaussian_fill(std::span<float> out, double mean, double stddev);

  /// Bernoulli with probability p of returning true.
  bool bernoulli(double p);

  /// Split off an independent child stream identified by a label.
  Rng split(std::string_view label) const;

  std::uint64_t seed() const { return seed_; }

 private:
  /// Writes `pairs` (<= kFillBatch / 2) fresh Box-Muller pairs to
  /// out[0, 2 * pairs), cos half first: what `pairs` uncached gaussian()
  /// pairs would return.
  void box_muller_pairs(double* out, std::size_t pairs);

  std::uint64_t state_[4];
  std::uint64_t seed_ = 0;
  double cached_gauss_ = 0.0;
  bool has_cached_gauss_ = false;
};

}  // namespace nora::util
