// A full analog matrix-multiply unit: a logical [K x N] weight matrix
// partitioned over a grid of physical tiles (paper Table II: 512x512),
// with the input path (rescale -> DAC -> non-idealities) and digital
// accumulation of per-tile partial sums.
//
// This is where NORA's rescale vector `s` (Eq. 6-8) plugs in:
//   - weights are programmed as  (w_kj * s_k) / gamma'_j
//   - inputs are streamed as      x_k / (alpha'_i * s_k)
// With all noise disabled the `s` terms cancel exactly and the unit
// computes x * W bit-for-bit (up to float rounding) — the core
// output-invariance property of the method, enforced by tests.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cim/analog_tile.hpp"
#include "cim/tile_config.hpp"
#include "faults/repair.hpp"
#include "noise/quantizer.hpp"
#include "noise/sshape.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace nora::cim {

/// Which tile-grid axis a multi-chip shard plan partitions.
enum class ShardAxis : std::uint8_t {
  kRowBlocks = 0,  // chip owns a contiguous row-block range (row split:
                   // every chip produces full-width partial sums)
  kColBlocks,      // chip owns a contiguous tile-column range (column
                   // split: chips produce disjoint output columns)
};

/// Multi-chip placement plan for ONE AnalogMatmul: the logical tile grid
/// stays a single unit (weights, streams and statistics are untouched),
/// and its (token, row-block, tile) work items are assigned to `n_chips`
/// contiguous ranges of `axis`. Chips are a placement and sim-time
/// concept: the timing co-sim charges the plan's split, while the host
/// runs every item on the global pool at TileConfig::n_threads, exactly
/// like an unsharded layer. Because the sharded path always runs at
/// per-tile work-item granularity with a canonical-order reduction, the
/// output bits are invariant under axis, chip count AND thread count.
struct ShardPlan {
  ShardAxis axis = ShardAxis::kRowBlocks;
  int n_chips = 1;
};

/// Per-row noise-stream coordinates: the only way rows are keyed. The
/// caller — not the call sequence — decides which noise a row sees. The
/// serving layer keys rows on (request stream, request-local position),
/// which is what makes a request's output bit-identical whether it is
/// served alone or inside a continuously-formed batch.
struct StreamKey {
  std::uint64_t stream = 0;
  std::uint64_t token = 0;
};

/// Keys {stream, t} for rows t < rows: how a fresh single-segment
/// TransformerLM::forward_serve keys a sequence on one stream.
inline std::vector<StreamKey> stream_keys(std::uint64_t stream,
                                          std::int64_t rows) {
  std::vector<StreamKey> keys(static_cast<std::size_t>(rows));
  for (std::size_t t = 0; t < keys.size(); ++t) keys[t] = {stream, t};
  return keys;
}

struct ArrayStats {
  double alpha_sum = 0.0;          // sum of final per-(token, block) alphas
  std::int64_t alpha_count = 0;
  std::int64_t dac_samples = 0;
  std::int64_t dac_clipped = 0;    // |x/alpha/s| > 1 before quantization
  std::int64_t bm_retries = 0;     // bound-management re-runs

  double mean_alpha() const {
    return alpha_count > 0 ? alpha_sum / static_cast<double>(alpha_count) : 0.0;
  }
  double dac_clip_fraction() const {
    return dac_samples > 0
               ? static_cast<double>(dac_clipped) / static_cast<double>(dac_samples)
               : 0.0;
  }
  void accumulate(const ArrayStats& o) {
    alpha_sum += o.alpha_sum;
    alpha_count += o.alpha_count;
    dac_samples += o.dac_samples;
    dac_clipped += o.dac_clipped;
    bm_retries += o.bm_retries;
  }
};

class AnalogMatmul {
 public:
  /// w: logical weights [K x N] (input dim x output dim).
  /// s: NORA rescale vector of length K, or empty for the naive mapping
  ///    (equivalent to all-ones).
  AnalogMatmul(const Matrix& w, std::vector<float> s, const TileConfig& cfg,
               std::uint64_t seed);

  std::int64_t in_dim() const { return k_; }
  std::int64_t out_dim() const { return n_; }
  const TileConfig& config() const { return cfg_; }
  /// Tile-grid geometry (timing co-sim resource shape): row blocks
  /// partition the input dim, column blocks the output dim.
  std::int64_t row_blocks() const {
    return static_cast<std::int64_t>(blocks_.size());
  }
  std::int64_t col_blocks() const {
    return blocks_.empty() ? 0
                           : static_cast<std::int64_t>(blocks_[0].tiles.size());
  }
  std::span<const float> s() const { return s_; }
  /// True when each output row depends only on its own input row and
  /// key. False under kAvgAbsMax, whose alpha averages over a stream's
  /// contiguous rows, so dropping one row would move the others' bits.
  bool rows_independent() const {
    return cfg_.scaling != InputScaling::kAvgAbsMax;
  }

  /// Label used in diagnostics/errors (typically the owning layer name).
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  /// x: [T x K] activations, keys: one StreamKey per row. Returns
  /// [T x N]. Row t draws every noise sample from a counter-keyed stream
  /// derived from (construction seed, keys[t].stream, keys[t].token,
  /// row-block, bound-management attempt, tile), so the result is a
  /// pure function of (seed, x, keys) — bit-identical for ANY value of
  /// cfg.n_threads, since no stream depends on execution order. Rows
  /// with equal `stream` form a group: under the kAvgAbsMax policy the
  /// shared alpha is averaged per contiguous group, so a group's result
  /// does not depend on what else shares the batch. The (token x
  /// row-block) work items fan out over the global thread pool when
  /// cfg.n_threads > 1. Throws std::invalid_argument on a dim or key
  /// count mismatch, and std::runtime_error naming the layer label,
  /// token and column if any output is NaN/Inf — non-finite values must
  /// not propagate silently into the rest of the transformer.
  Matrix forward(const Matrix& x, std::span<const StreamKey> keys);

  /// PCM drift: re-read all tiles t seconds after programming.
  void set_read_time(float t_seconds);

  // --- multi-chip sharding ---
  /// Install a multi-chip placement plan (see ShardPlan). Throws
  /// std::invalid_argument when plan.n_chips < 1. Must not be called
  /// while a forward is in flight. The sharded path differs from the
  /// unsharded one in two DOCUMENTED, deterministic ways: (a) partial
  /// sums reduce over row blocks through a canonical stride-doubling
  /// tree instead of the legacy linear fold, and (b) bound management
  /// retries per TILE rather than per row block (each chip re-runs only
  /// its own arrays, so alpha_count counts per-tile attempts). Neither
  /// depends on the plan: any (axis, n_chips, threads) choice yields
  /// identical bits.
  void set_shard_plan(ShardPlan plan);
  /// Return to the unsharded execution path.
  void clear_shard_plan();
  bool sharded() const { return sharded_; }
  /// The installed plan, or nullptr when unsharded.
  const ShardPlan* shard_plan() const { return sharded_ ? &shard_ : nullptr; }

  // --- analytics for Fig. 6 ---
  /// Mean per-column gamma over all tiles.
  double mean_gamma() const;
  /// Running mean alpha over all forwards so far.
  double mean_alpha() const { return stats_.mean_alpha(); }
  /// mean(alpha) * mean(gamma) * g_max — the Fig. 6c quantity; smaller
  /// means larger output current into the ADC, i.e. higher SNR.
  double mean_alpha_gamma_gmax() const;

  const ArrayStats& stats() const { return stats_; }
  std::int64_t adc_reads() const;
  std::int64_t adc_saturations() const;
  /// Fraction of ADC reads that saturated (0 when nothing was read).
  double adc_saturation_rate() const;
  /// Clears the array stats and every per-tile ADC counter.
  void reset_stats();

  /// Program-time fault/repair statistics aggregated over all tiles
  /// (all zeros for a fault-free configuration).
  faults::ArrayFaultStats fault_stats() const;

  // --- runtime integrity (ABFT checksum columns) ---
  bool abft_enabled() const { return cfg_.abft_checksum; }
  /// Checksum statistics aggregated over all tiles since construction /
  /// reset_stats().
  AbftStats abft_stats() const;

  /// A permanent post-deployment device failure in logical weight
  /// coordinates (input dim k, output dim n).
  struct WearRecord {
    std::int64_t k = 0, n = 0;
    float value = 0.0f;
  };
  /// Transient single-event upset at logical (k, n): the device reads
  /// `value` until the next set_read_time re-derives the state.
  void upset_device(std::int64_t k, std::int64_t n, float value);
  /// Permanent wear at logical (k, n): survives re-reads and drift.
  /// Recorded so a refresh (which rebuilds the matmul on the same
  /// physical hardware) can replay it — reprogramming cannot fix broken
  /// silicon.
  void wear_stuck(std::int64_t k, std::int64_t n, float value);
  const std::vector<WearRecord>& wear() const { return wear_; }

 private:
  struct RowBlock {
    std::int64_t k0 = 0, k1 = 0;               // input-dim range
    std::vector<std::unique_ptr<AnalogTile>> tiles;  // one per column block
    std::vector<std::int64_t> col0;             // output-dim offsets
  };

  /// Run one (token, row-block, tile-range) work item: input rescale ->
  /// DAC -> non-idealities -> tile MVMs over tiles [ti0, ti1), with the
  /// bound-management retry loop inside. All randomness comes from
  /// streams keyed on (key.stream, key.token, b, attempt, tile) with
  /// GLOBAL tile indices, so any partition of a block's tiles into work
  /// items draws identical bits. `y` is the block's full output row
  /// (width n_); the item touches only its owned tiles' column spans.
  /// `commit_dac` dedups the per-block DAC traffic counters when a block
  /// is split into several items (exactly one of them — tiles [0, x) —
  /// commits). `stats` and `tiles` (tiles[ti - ti0] for tile ti) are the
  /// item's private result slots, overwritten in full.
  /// Thread-safe for concurrent calls with distinct (key, b, tile-range).
  void run_work_item(std::size_t b, std::size_t ti0, std::size_t ti1,
                     bool commit_dac, StreamKey key,
                     std::span<const float> xrow, float avg_alpha_b,
                     std::span<float> y, ArrayStats& stats,
                     std::span<TileRunCounters> tiles) const;

  /// Sharded execution of one token chunk [tc0, tc1): per-tile work
  /// items fan out over the global pool at cfg.n_threads, then partial
  /// sums reduce through the canonical tree and statistics fold in
  /// (t, b, tile) order. Bit-identical for any plan and thread count.
  void run_chunk_sharded(const Matrix& x, std::span<const StreamKey> keys,
                         std::int64_t tc0, std::int64_t tc1,
                         std::int64_t n_groups, Matrix& y);

  /// Resolve logical (k, n) to the owning tile and its local (col j,
  /// row k) coordinates. Throws std::invalid_argument when out of range.
  AnalogTile& locate(std::int64_t k, std::int64_t n, std::int64_t& j_local,
                     std::int64_t& k_local);

  TileConfig cfg_;
  std::string label_;
  std::int64_t k_ = 0, n_ = 0;
  std::vector<float> s_;
  std::vector<RowBlock> blocks_;
  noise::UniformQuantizer dac_;
  noise::SShapeNonlinearity sshape_;
  /// Root of all runtime noise streams; per-work-item streams are
  /// derived from it with derive_stream(stream_base_, key.stream,
  /// key.token, ...).
  std::uint64_t stream_base_ = 0;
  ArrayStats stats_;
  std::vector<WearRecord> wear_;  // permanent post-deployment faults
  // forward scratch, reused across calls so steady-state steps allocate
  // nothing here, whatever mix of row counts they alternate between.
  // group_of_/avg_alpha_ are assign()ed (capacity kept); partial_ and
  // the item slots below only ever grow, since every item overwrites
  // what it reads.
  // forward() was never safe to call concurrently on one AnalogMatmul
  // (stats_); these add no new restriction.
  std::vector<std::int64_t> group_of_;
  std::vector<float> avg_alpha_;
  std::vector<float> partial_;
  // Per-work-item results besides the output slice: DAC/alpha/bound-
  // management stats, and one runtime counter per tile the item ran.
  // Private per item and folded into the shared state serially, in
  // canonical order, so the statistics are race-free AND bit-identical
  // for any thread count. Flat arrays with no per-item heap storage,
  // never shrunk, so a smaller call neither frees nor re-zeroes them.
  std::vector<ArrayStats> item_stats_;
  std::vector<TileRunCounters> item_tiles_;
  // multi-chip placement plan (see set_shard_plan)
  ShardPlan shard_;
  bool sharded_ = false;
};

}  // namespace nora::cim
