#include "cim/analog_matmul.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/simd.hpp"
#include "util/simd_kernels.hpp"
#include "util/thread_pool.hpp"

namespace nora::cim {

namespace {

/// fn(0) .. fn(items - 1) on the global pool when n_threads > 1, else
/// inline. The pool only decides who runs an item, never what it computes.
template <class Fn>
void run_items(int n_threads, std::int64_t items, const Fn& fn) {
  if (n_threads > 1) {
    util::ThreadPool::global().parallel_for(items, fn);
  } else {
    for (std::int64_t i = 0; i < items; ++i) fn(i);
  }
}

/// Grow v to at least n elements; never shrink. Every work item
/// overwrites its result slots and zero-fills its own output spans, so
/// the values a smaller call left behind are never read, and a prefill
/// after a decode step does not value-initialise them again.
template <class T>
void grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

}  // namespace

AnalogMatmul::AnalogMatmul(const Matrix& w, std::vector<float> s,
                           const TileConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      k_(w.rows()),
      n_(w.cols()),
      s_(std::move(s)),
      dac_(cfg.dac_steps(), 1.0f),
      sshape_(cfg.sshape_k),
      stream_base_(util::derive_seed(seed, "mvm-streams")) {
  if (k_ == 0 || n_ == 0) throw std::invalid_argument("AnalogMatmul: empty weights");
  if (s_.empty()) s_.assign(static_cast<std::size_t>(k_), 1.0f);
  if (static_cast<std::int64_t>(s_.size()) != k_) {
    throw std::invalid_argument("AnalogMatmul: s length must equal in_dim");
  }
  for (float v : s_) {
    if (!(v > 0.0f) || !std::isfinite(v)) {
      throw std::invalid_argument("AnalogMatmul: s entries must be finite and > 0");
    }
  }
  // Fold s into the weights (Eq. 6), then partition over the tile grid.
  Matrix w_scaled = w;
  for (std::int64_t k = 0; k < k_; ++k) {
    auto row = w_scaled.row(k);
    const float sk = s_[static_cast<std::size_t>(k)];
    for (auto& v : row) v *= sk;
  }
  // Spare columns are reserved out of each physical tile, shrinking its
  // logical capacity.
  if (cfg_.spare_cols < 0 || cfg_.spare_cols >= cfg_.tile_cols) {
    throw std::invalid_argument(
        "AnalogMatmul: spare_cols must be in [0, tile_cols)");
  }
  const std::int64_t tr = cfg_.tile_rows;
  const std::int64_t tc = cfg_.tile_cols - cfg_.spare_cols;
  // Program-time randomness (programming noise, faults, drift exponents)
  // keeps the original sequential split sequence, so construction is
  // bit-identical to earlier revisions; only the runtime streams moved
  // to counter-based derivation.
  util::Rng boot(seed);
  int tile_id = 0;
  for (std::int64_t k0 = 0; k0 < k_; k0 += tr) {
    RowBlock block;
    block.k0 = k0;
    block.k1 = std::min(k_, k0 + tr);
    for (std::int64_t c0 = 0; c0 < n_; c0 += tc) {
      const std::int64_t c1 = std::min(n_, c0 + tc);
      Matrix slice(block.k1 - block.k0, c1 - c0);
      for (std::int64_t k = block.k0; k < block.k1; ++k) {
        for (std::int64_t c = c0; c < c1; ++c) {
          slice.at(k - block.k0, c - c0) = w_scaled.at(k, c);
        }
      }
      block.tiles.push_back(std::make_unique<AnalogTile>(
          slice, cfg_, boot.split("tile-" + std::to_string(tile_id++))));
      block.col0.push_back(c0);
    }
    blocks_.push_back(std::move(block));
  }
}

void AnalogMatmul::run_work_item(std::size_t b, std::size_t ti0,
                                 std::size_t ti1, bool commit_dac,
                                 StreamKey key, std::span<const float> xrow,
                                 float avg_alpha_b, std::span<float> y,
                                 ArrayStats& stats,
                                 std::span<TileRunCounters> tiles) const {
  const RowBlock& block = blocks_[b];
  const std::int64_t nk = block.k1 - block.k0;
  // Per-thread workspace: pool workers (and the calling thread) are
  // long-lived, so these buffers hit their high-water size once and then
  // serve every subsequent work item — any layer, any step —
  // allocation-free. Indexing below is bounded by nk explicitly, so a
  // buffer left larger by a wider layer is harmless.
  struct Workspace {
    std::vector<float> xs, xhat;
    std::vector<double> in_noise;
    std::vector<TileRunCounters> counters;
    TileMvmScratch tile;
  };
  thread_local Workspace ws;
  if (ws.xs.size() < static_cast<std::size_t>(nk)) {
    ws.xs.resize(static_cast<std::size_t>(nk));
    ws.xhat.resize(static_cast<std::size_t>(nk));
  }
  std::vector<float>& xs = ws.xs;
  std::vector<float>& xhat = ws.xhat;
  float abs_max = 0.0f;
  for (std::int64_t k = 0; k < nk; ++k) {
    const float v =
        xrow[block.k0 + k] / s_[static_cast<std::size_t>(block.k0 + k)];
    xs[static_cast<std::size_t>(k)] = v;
    abs_max = std::max(abs_max, std::fabs(v));
  }
  float alpha = 1.0f;
  switch (cfg_.scaling) {
    case InputScaling::kNone:
      alpha = 1.0f;
      break;
    case InputScaling::kAbsMax:
      alpha = abs_max > 0.0f ? abs_max : 1.0f;  // Eq. 5 / Eq. 7
      break;
    case InputScaling::kAvgAbsMax:
      alpha = avg_alpha_b;
      break;
  }
  // The tile MVM bumps its counters once per column. Neighbouring items'
  // result slots share cache lines, so count in thread-private storage
  // and publish once, at the end.
  const std::size_t n_tiles = ti1 - ti0;
  if (ws.counters.size() < n_tiles) ws.counters.resize(n_tiles);
  std::fill_n(ws.counters.begin(), n_tiles, TileRunCounters{});
  stats = ArrayStats{};
  // Bound management [Gokmen'17]: rerun with doubled alpha while the
  // ADC saturates (weaker signal, but no output clipping). Each attempt
  // keys its own noise streams on (stream, token, block, attempt), so a
  // retry re-samples fresh hardware noise exactly like a physical rerun.
  const bool use_in_noise = cfg_.in_noise > 0.0f;
  const double in_stddev = cfg_.in_noise;
  int iter = 0;
  for (;;) {
    const std::uint64_t work_key = util::derive_stream(
        stream_base_, key.stream, key.token,
        (static_cast<std::uint64_t>(b) << 8) | static_cast<std::uint64_t>(iter));
    // The input-noise stream draws exactly one standard normal per
    // element, unconditionally, so the whole attempt's draws batch into
    // one gaussian_fill from the identical derived stream — same seed,
    // same draw order, same bits as the former per-element calls. The
    // stream (and its derivation) is skipped entirely when input noise
    // is off: nothing else ever reads it, so the skip is unobservable.
    if (use_in_noise) {
      if (ws.in_noise.size() < static_cast<std::size_t>(nk)) {
        ws.in_noise.resize(static_cast<std::size_t>(nk));
      }
      util::Rng in_rng(util::derive_stream(work_key, 0));
      in_rng.gaussian_fill(
          std::span<double>(ws.in_noise.data(), static_cast<std::size_t>(nk)));
    }
    // Input path: rescale by alpha, DAC-quantize (clipping at full
    // scale), S-shape nonlinearity, additive input noise. DAC counters
    // stay attempt-local and only the accepted pass commits them: a
    // bound-management retry replays the SAME physical samples at a
    // different scale, so counting every attempt would double-count the
    // converter traffic (retries are visible in bm_retries instead).
    std::int64_t dac_samples = 0;
    std::int64_t dac_clipped = 0;
    const float inv_alpha = 1.0f / alpha;
    double l2 = 0.0;
    if (util::simd::use_avx2()) {
      // Vector stage: scale/clip/quantize eight samples at a time; the
      // S-shape (libm tanh) stays scalar, the additive-noise and l2
      // epilogues mirror the compiled scalar expressions exactly
      // (fma-with-zero and the fused l2 += v*v chain), so this branch is
      // bit-identical to the scalar loop below.
      dac_samples = nk;
      dac_clipped = util::simd::dac_scale_clip_quantize_avx2(
          xs.data(), xhat.data(), static_cast<std::size_t>(nk), inv_alpha,
          dac_.steps(), dac_.bound());
      if (sshape_.enabled()) {
        for (std::int64_t k = 0; k < nk; ++k) {
          auto& v = xhat[static_cast<std::size_t>(k)];
          v = sshape_.apply(v);
        }
      }
      if (use_in_noise) {
        util::simd::add_scaled_gaussian_avx2(xhat.data(), ws.in_noise.data(),
                                             static_cast<std::size_t>(nk),
                                             in_stddev);
      }
      for (std::int64_t k = 0; k < nk; ++k) {
        const double vd = xhat[static_cast<std::size_t>(k)];
        l2 = std::fma(vd, vd, l2);
      }
    } else {
      for (std::int64_t k = 0; k < nk; ++k) {
        float v = xs[static_cast<std::size_t>(k)] * inv_alpha;
        ++dac_samples;
        if (std::fabs(v) > 1.0f) {
          ++dac_clipped;
          v = v > 0.0f ? 1.0f : -1.0f;
        }
        v = dac_.quantize(v);
        v = sshape_.apply(v);
        if (use_in_noise) {
          v += static_cast<float>(
              0.0 + in_stddev * ws.in_noise[static_cast<std::size_t>(k)]);
        }
        xhat[static_cast<std::size_t>(k)] = v;
        l2 += double(v) * v;
      }
    }
    const float x_l2 = static_cast<float>(std::sqrt(l2));
    const std::span<const float> x_hat(xhat.data(),
                                       static_cast<std::size_t>(nk));
    // Zero exactly the owned tiles' output spans (the full row when the
    // item owns the whole block — the tile columns tile [0, n) exactly).
    for (std::size_t ti = ti0; ti < ti1; ++ti) {
      auto span = y.subspan(static_cast<std::size_t>(block.col0[ti]),
                            static_cast<std::size_t>(block.tiles[ti]->cols()));
      std::fill(span.begin(), span.end(), 0.0f);
    }
    bool saturated = false;
    for (std::size_t ti = ti0; ti < ti1; ++ti) {
      const AnalogTile& tile = *block.tiles[ti];
      util::Rng tile_rng(util::derive_stream(work_key, 1 + ti));
      const bool abft = tile.abft_enabled();
      util::Rng abft_rng(
          abft ? util::derive_stream(work_key, 0x100000000ull + ti) : 0);
      saturated |=
          tile.mvm(x_hat, x_l2, alpha,
                   y.subspan(static_cast<std::size_t>(block.col0[ti]),
                             static_cast<std::size_t>(tile.cols())),
                   tile_rng, abft ? &abft_rng : nullptr, ws.counters[ti - ti0],
                   ws.tile);
    }
    if (!saturated || !cfg_.bound_management || iter >= cfg_.bm_max_iters) {
      if (commit_dac) {
        stats.dac_samples += dac_samples;
        stats.dac_clipped += dac_clipped;
      }
      break;
    }
    alpha *= 2.0f;
    ++iter;
    ++stats.bm_retries;
  }
  stats.alpha_sum += alpha;
  ++stats.alpha_count;
  std::copy_n(ws.counters.begin(), n_tiles, tiles.begin());
}

Matrix AnalogMatmul::forward(const Matrix& x, std::span<const StreamKey> keys) {
  if (x.cols() != k_) throw std::invalid_argument("AnalogMatmul::forward: dim mismatch");
  if (static_cast<std::int64_t>(keys.size()) != x.rows()) {
    throw std::invalid_argument(
        "AnalogMatmul::forward: one StreamKey per row required");
  }
  const std::int64_t t_count = x.rows();
  Matrix y(t_count, n_);
  // For the kAvgAbsMax policy the scale is shared across an alpha
  // group: each contiguous run of rows with equal StreamKey::stream (so
  // a request's alpha never depends on its batch neighbours, and a
  // one-stream call shares one scale over all its rows).
  std::vector<std::int64_t>& group_of = group_of_;  // row -> alpha-group index
  std::int64_t n_groups = t_count > 0 ? 1 : 0;
  if (t_count > 0) {
    group_of.assign(static_cast<std::size_t>(t_count), 0);
    for (std::int64_t t = 1; t < t_count; ++t) {
      if (keys[static_cast<std::size_t>(t)].stream !=
          keys[static_cast<std::size_t>(t - 1)].stream) {
        ++n_groups;
      }
      group_of[static_cast<std::size_t>(t)] = n_groups - 1;
    }
  }
  std::vector<float>& avg_alpha = avg_alpha_;
  avg_alpha.assign(blocks_.size() * static_cast<std::size_t>(n_groups), 0.0f);
  if (cfg_.scaling == InputScaling::kAvgAbsMax && t_count > 0) {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      double sum = 0.0;
      std::int64_t group_n = 0;
      std::int64_t group = 0;
      for (std::int64_t t = 0; t < t_count; ++t) {
        if (group_of[static_cast<std::size_t>(t)] != group) {
          float& a = avg_alpha[b * static_cast<std::size_t>(n_groups) +
                               static_cast<std::size_t>(group)];
          a = static_cast<float>(sum / static_cast<double>(group_n));
          if (a <= 0.0f) a = 1.0f;
          sum = 0.0;
          group_n = 0;
          group = group_of[static_cast<std::size_t>(t)];
        }
        const auto row = x.row(t);
        float m = 0.0f;
        for (std::int64_t k = blocks_[b].k0; k < blocks_[b].k1; ++k) {
          m = std::max(m, std::fabs(row[k] / s_[static_cast<std::size_t>(k)]));
        }
        sum += m;
        ++group_n;
      }
      float& a = avg_alpha[b * static_cast<std::size_t>(n_groups) +
                           static_cast<std::size_t>(group)];
      a = static_cast<float>(sum / static_cast<double>(group_n));
      if (a <= 0.0f) a = 1.0f;
    }
  }
  // Fan the (token x row-block) work items over the pool. Each item
  // writes a private output slice and private result slots; the shared
  // state (stats_, y rows, tile counters) is updated afterwards in
  // canonical (token, row-block) order, so the float accumulation order
  // and every statistic are independent of the thread count.
  const std::int64_t n_blocks = static_cast<std::int64_t>(blocks_.size());
  if (cfg_.n_threads > 1) util::ThreadPool::global().ensure(cfg_.n_threads);
  // Token chunking bounds the private-slice memory at ~16 MB while still
  // exposing enough items to keep every worker busy.
  const std::int64_t budget = std::int64_t{1} << 22;  // floats
  const std::int64_t chunk = std::clamp<std::int64_t>(
      budget / std::max<std::int64_t>(1, n_blocks * n_), 1,
      std::max<std::int64_t>(1, t_count));
  std::vector<float>& partial = partial_;
  const std::size_t n_cols = static_cast<std::size_t>(col_blocks());
  for (std::int64_t tc0 = 0; tc0 < t_count; tc0 += chunk) {
    const std::int64_t tc1 = std::min(t_count, tc0 + chunk);
    if (sharded_) {
      run_chunk_sharded(x, keys, tc0, tc1, n_groups, y);
      continue;
    }
    const std::int64_t items = (tc1 - tc0) * n_blocks;
    grow(partial, static_cast<std::size_t>(items * n_));
    grow(item_stats_, static_cast<std::size_t>(items));
    grow(item_tiles_, static_cast<std::size_t>(items) * n_cols);
    auto run_item = [&](std::int64_t i) {
      const std::int64_t t = tc0 + i / n_blocks;
      const std::size_t b = static_cast<std::size_t>(i % n_blocks);
      const std::size_t slot = static_cast<std::size_t>(i);
      run_work_item(b, 0, n_cols, true,
                    keys[static_cast<std::size_t>(t)], x.row(t),
                    avg_alpha[b * static_cast<std::size_t>(n_groups) +
                              static_cast<std::size_t>(
                                  group_of[static_cast<std::size_t>(t)])],
                    std::span<float>(partial.data() + i * n_,
                                     static_cast<std::size_t>(n_)),
                    item_stats_[slot],
                    std::span<TileRunCounters>(
                        item_tiles_.data() + slot * n_cols, n_cols));
    };
    run_items(cfg_.n_threads, items, run_item);
    // Deterministic serial reduction.
    for (std::int64_t t = tc0; t < tc1; ++t) {
      auto yrow = y.row(t);
      for (std::int64_t b = 0; b < n_blocks; ++b) {
        const std::int64_t i = (t - tc0) * n_blocks + b;
        stats_.accumulate(item_stats_[static_cast<std::size_t>(i)]);
        const float* p = partial.data() + i * n_;
        for (std::int64_t j = 0; j < n_; ++j) yrow[j] += p[j];
        auto& tiles = blocks_[static_cast<std::size_t>(b)].tiles;
        for (std::size_t ti = 0; ti < n_cols; ++ti) {
          tiles[ti]->add_run_counters(
              item_tiles_[static_cast<std::size_t>(i) * n_cols + ti]);
        }
      }
      // Non-finite guard: a NaN/Inf here would silently poison every
      // downstream layer; fail loudly, naming the offender instead.
      for (std::int64_t j = 0; j < n_; ++j) {
        if (!std::isfinite(yrow[j])) {
          throw std::runtime_error(
              "AnalogMatmul[" + (label_.empty() ? "?" : label_) +
              "]: non-finite output at token " + std::to_string(t) +
              ", column " + std::to_string(j));
        }
      }
    }
  }
  return y;
}

void AnalogMatmul::set_shard_plan(ShardPlan plan) {
  if (plan.n_chips < 1) {
    throw std::invalid_argument("AnalogMatmul: shard plan needs >= 1 chip");
  }
  shard_ = std::move(plan);
  sharded_ = true;
}

void AnalogMatmul::clear_shard_plan() {
  shard_ = ShardPlan{};
  sharded_ = false;
}

void AnalogMatmul::run_chunk_sharded(const Matrix& x,
                                     std::span<const StreamKey> keys,
                                     std::int64_t tc0, std::int64_t tc1,
                                     std::int64_t n_groups, Matrix& y) {
  const std::int64_t n_blocks = static_cast<std::int64_t>(blocks_.size());
  const std::int64_t n_cols = col_blocks();
  const std::int64_t rows = tc1 - tc0;
  const std::int64_t slots = rows * n_blocks;   // (token, row-block) rows
  const std::int64_t items = slots * n_cols;    // (token, row-block, tile)
  grow(partial_, static_cast<std::size_t>(slots * n_));
  grow(item_stats_, static_cast<std::size_t>(items));
  grow(item_tiles_, static_cast<std::size_t>(items));
  auto run_item = [&](std::int64_t i) {
    const std::int64_t t = tc0 + i / (n_blocks * n_cols);
    const std::int64_t rem = i % (n_blocks * n_cols);
    const std::size_t b = static_cast<std::size_t>(rem / n_cols);
    const std::size_t ti = static_cast<std::size_t>(rem % n_cols);
    const std::int64_t slot = (t - tc0) * n_blocks + static_cast<std::int64_t>(b);
    run_work_item(b, ti, ti + 1, ti == 0, keys[static_cast<std::size_t>(t)],
                  x.row(t),
                  avg_alpha_[b * static_cast<std::size_t>(n_groups) +
                             static_cast<std::size_t>(
                                 group_of_[static_cast<std::size_t>(t)])],
                  std::span<float>(partial_.data() + slot * n_,
                                   static_cast<std::size_t>(n_)),
                  item_stats_[static_cast<std::size_t>(i)],
                  std::span<TileRunCounters>(
                      &item_tiles_[static_cast<std::size_t>(i)], 1));
  };
  // The plan only decides which chips the timing model charges: items
  // write disjoint column spans of their (token, row-block) partial row
  // and private result slots, so they fan over the same pool as the
  // unsharded path, balanced over the whole grid.
  run_items(cfg_.n_threads, items, run_item);
  // Deterministic reduction, independent of the plan: statistics fold
  // serially in canonical (token, row-block, tile) order, partial sums
  // reduce over row blocks through a canonical stride-doubling tree —
  // the digital all-reduce a real multi-chip system would run, with a
  // bracketing that is a pure function of the row-block count.
  for (std::int64_t t = tc0; t < tc1; ++t) {
    for (std::int64_t b = 0; b < n_blocks; ++b) {
      auto& tiles = blocks_[static_cast<std::size_t>(b)].tiles;
      for (std::int64_t ti = 0; ti < n_cols; ++ti) {
        const std::int64_t i = ((t - tc0) * n_blocks + b) * n_cols + ti;
        stats_.accumulate(item_stats_[static_cast<std::size_t>(i)]);
        tiles[static_cast<std::size_t>(ti)]->add_run_counters(
            item_tiles_[static_cast<std::size_t>(i)]);
      }
    }
    float* base = partial_.data() + (t - tc0) * n_blocks * n_;
    for (std::int64_t stride = 1; stride < n_blocks; stride *= 2) {
      for (std::int64_t b = 0; b + stride < n_blocks; b += 2 * stride) {
        float* dst = base + b * n_;
        const float* src = base + (b + stride) * n_;
        for (std::int64_t j = 0; j < n_; ++j) dst[j] += src[j];
      }
    }
    auto yrow = y.row(t);
    for (std::int64_t j = 0; j < n_; ++j) yrow[j] = base[j];
    for (std::int64_t j = 0; j < n_; ++j) {
      if (!std::isfinite(yrow[j])) {
        throw std::runtime_error(
            "AnalogMatmul[" + (label_.empty() ? "?" : label_) +
            "]: non-finite output at token " + std::to_string(t) +
            ", column " + std::to_string(j));
      }
    }
  }
}

void AnalogMatmul::set_read_time(float t_seconds) {
  for (auto& block : blocks_) {
    for (auto& tile : block.tiles) tile->set_read_time(t_seconds);
  }
}

double AnalogMatmul::mean_gamma() const {
  double sum = 0.0;
  std::int64_t count = 0;
  for (const auto& block : blocks_) {
    for (const auto& tile : block.tiles) {
      for (float g : tile->gamma()) sum += g;
      count += tile->cols();
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double AnalogMatmul::mean_alpha_gamma_gmax() const {
  return mean_alpha() * mean_gamma() * cfg_.g_max;
}

std::int64_t AnalogMatmul::adc_reads() const {
  std::int64_t n = 0;
  for (const auto& block : blocks_) {
    for (const auto& tile : block.tiles) n += tile->adc_reads();
  }
  return n;
}

std::int64_t AnalogMatmul::adc_saturations() const {
  std::int64_t n = 0;
  for (const auto& block : blocks_) {
    for (const auto& tile : block.tiles) n += tile->adc_saturations();
  }
  return n;
}

double AnalogMatmul::adc_saturation_rate() const {
  const std::int64_t reads = adc_reads();
  return reads > 0
             ? static_cast<double>(adc_saturations()) / static_cast<double>(reads)
             : 0.0;
}

void AnalogMatmul::reset_stats() {
  stats_ = ArrayStats{};
  for (auto& block : blocks_) {
    for (auto& tile : block.tiles) tile->reset_stats();
  }
}

faults::ArrayFaultStats AnalogMatmul::fault_stats() const {
  faults::ArrayFaultStats agg;
  for (const auto& block : blocks_) {
    for (const auto& tile : block.tiles) agg.accumulate(tile->fault_stats());
  }
  return agg;
}

AbftStats AnalogMatmul::abft_stats() const {
  AbftStats agg;
  for (const auto& block : blocks_) {
    for (const auto& tile : block.tiles) agg.accumulate(tile->abft_stats());
  }
  return agg;
}

AnalogTile& AnalogMatmul::locate(std::int64_t k, std::int64_t n,
                                 std::int64_t& j_local, std::int64_t& k_local) {
  if (k < 0 || k >= k_ || n < 0 || n >= n_) {
    throw std::invalid_argument("AnalogMatmul: device coordinate out of range");
  }
  for (auto& block : blocks_) {
    if (k < block.k0 || k >= block.k1) continue;
    for (std::size_t t = 0; t < block.tiles.size(); ++t) {
      AnalogTile& tile = *block.tiles[t];
      const std::int64_t c0 = block.col0[t];
      if (n < c0 || n >= c0 + tile.cols()) continue;
      j_local = n - c0;
      k_local = k - block.k0;
      return tile;
    }
  }
  throw std::logic_error("AnalogMatmul: tile grid does not cover coordinate");
}

void AnalogMatmul::upset_device(std::int64_t k, std::int64_t n, float value) {
  std::int64_t j = 0, kl = 0;
  locate(k, n, j, kl).upset_device(j, kl, value);
}

void AnalogMatmul::wear_stuck(std::int64_t k, std::int64_t n, float value) {
  std::int64_t j = 0, kl = 0;
  AnalogTile& tile = locate(k, n, j, kl);
  wear_.push_back({k, n, value});
  tile.wear_stuck(j, kl, value);
}

}  // namespace nora::cim
