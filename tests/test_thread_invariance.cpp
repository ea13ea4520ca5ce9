// The tentpole property: analog inference is bit-identical for ANY
// thread count, because every noise draw comes from a counter-keyed
// stream instead of a shared sequential RNG. Also checks that the
// one-time stream relayout preserved the noise *statistics* of each
// knob (the simulator models the same hardware, just reproducibly).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "cim/analog_matmul.hpp"
#include "core/nora.hpp"
#include "eval/evaluator.hpp"
#include "nn/mlp.hpp"
#include "nn/transformer.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace nora {
namespace {

Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed,
                     float std_dev = 0.5f) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.fill_gaussian(rng, std_dev);
  return m;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.size())) == 0;
}

/// Everything-on operating point: converters, all noise knobs, S-shape,
/// IR drop, bound management, hard faults + spares + verify retries,
/// ABFT checksum columns — small tiles so the 70x50 matrix spans a
/// 3x3 grid of row/column blocks.
cim::TileConfig everything_on(int n_threads) {
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 32;
  cfg.tile_cols = 24;
  cfg.in_noise = 0.02f;
  cfg.sshape_k = 0.2f;
  cfg.bound_management = true;
  cfg.adc_bound = 4.0f;  // low bound so bound management actually fires
  cfg.faults.stuck_zero_rate = 0.01f;
  cfg.faults.stuck_gmax_rate = 0.002f;
  cfg.spare_cols = 2;
  cfg.max_program_retries = 2;
  cfg.abft_checksum = true;
  cfg.n_threads = n_threads;
  return cfg;
}

TEST(ThreadInvariance, MatmulBitIdenticalAcrossThreadCounts) {
  const Matrix w = random_matrix(70, 50, 909);
  const Matrix x = random_matrix(6, 70, 808, 1.0f);
  // Reference: fully sequential run (pool width 1, serial code path).
  util::ThreadPool::global().resize(1);
  cim::AnalogMatmul ref_unit(w, {}, everything_on(1), 777);
  const Matrix ref1 = ref_unit.forward(x, cim::stream_keys(0, x.rows()));
  const Matrix ref2 = ref_unit.forward(x, cim::stream_keys(1, x.rows()));
  const auto ref_stats = ref_unit.stats();
  const std::int64_t ref_reads = ref_unit.adc_reads();
  const auto ref_abft = ref_unit.abft_stats();
  for (const int threads : {2, 7, 16}) {
    util::ThreadPool::global().resize(threads);
    cim::AnalogMatmul unit(w, {}, everything_on(threads), 777);
    const Matrix y1 = unit.forward(x, cim::stream_keys(0, x.rows()));
    const Matrix y2 = unit.forward(x, cim::stream_keys(1, x.rows()));
    EXPECT_TRUE(bitwise_equal(y1, ref1)) << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(y2, ref2)) << "threads=" << threads;
    // Statistics reduce in canonical order: equally thread-invariant.
    EXPECT_EQ(unit.stats().dac_samples, ref_stats.dac_samples);
    EXPECT_EQ(unit.stats().dac_clipped, ref_stats.dac_clipped);
    EXPECT_EQ(unit.stats().bm_retries, ref_stats.bm_retries);
    EXPECT_EQ(unit.stats().alpha_sum, ref_stats.alpha_sum);
    EXPECT_EQ(unit.adc_reads(), ref_reads);
    EXPECT_EQ(unit.abft_stats().checks, ref_abft.checks);
    EXPECT_EQ(unit.abft_stats().residual_abs_sum, ref_abft.residual_abs_sum);
  }
  util::ThreadPool::global().resize(1);
}

TEST(ThreadInvariance, NoraRescaleAndDriftAlsoInvariant) {
  const Matrix w = random_matrix(70, 50, 909);
  const Matrix x = random_matrix(4, 70, 808, 1.0f);
  std::vector<float> s(70);
  util::Rng sr(606);
  for (auto& v : s) v = static_cast<float>(std::exp(sr.gaussian(0.0, 0.5)));
  auto run = [&](int threads) {
    util::ThreadPool::global().resize(threads);
    cim::TileConfig cfg = everything_on(threads);
    cfg.drift_enabled = true;
    cim::AnalogMatmul unit(w, s, cfg, 555);
    unit.set_read_time(3600.0f);
    return unit.forward(x, cim::stream_keys(0, x.rows()));
  };
  const Matrix ref = run(1);
  EXPECT_TRUE(bitwise_equal(run(2), ref));
  EXPECT_TRUE(bitwise_equal(run(7), ref));
  util::ThreadPool::global().resize(1);
}

TEST(ThreadInvariance, DeployedModelLogitsBitIdentical) {
  const eval::SynthLambadaConfig task_cfg;
  nn::TransformerConfig arch;
  arch.vocab_size = task_cfg.vocab_size();
  arch.max_seq = task_cfg.seq_len;
  arch.d_model = 32;
  arch.n_layers = 2;
  arch.n_heads = 4;
  arch.d_ff = 64;
  arch.seed = 21;
  const std::vector<int> tokens{3, 1, 4, 1, 5, 9, 2, 6};
  const eval::SynthLambada task{task_cfg};
  // Both MLP families: the gated one runs SiLU(gate) * up, the default
  // GELU on up alone, each as its own fan-out.
  for (const nn::MlpKind kind : {nn::MlpKind::kGelu, nn::MlpKind::kSiluGated}) {
    arch.mlp_kind = kind;
    auto run = [&](int threads) {
      util::ThreadPool::global().resize(threads);
      nn::TransformerLM model(arch);
      core::DeployOptions opts;
      opts.tile = everything_on(threads);
      opts.tile.tile_rows = 16;
      opts.tile.tile_cols = 12;
      opts.seed = 4040;
      core::deploy_analog(model, task, opts);
      return model.infer(tokens);
    };
    const Matrix ref = run(1);
    for (const int threads : {2, 7, 16}) {
      EXPECT_TRUE(bitwise_equal(run(threads), ref))
          << "mlp_kind=" << static_cast<int>(kind) << " threads=" << threads;
    }
  }
  util::ThreadPool::global().resize(1);
}

/// The MLP activation fans out in element chunks over the global pool:
/// for both families, on one row (inline), a few rows (a ragged last
/// chunk) and many, the keyed forward is bit-identical at every width.
/// On digital weights it also equals the training forward, which shares
/// the activation loop.
TEST(ThreadInvariance, MlpActivationBitIdenticalAcrossWidths) {
  for (const nn::MlpKind kind : {nn::MlpKind::kGelu, nn::MlpKind::kSiluGated}) {
    for (const bool analog : {false, true}) {
      for (const std::int64_t rows : {1, 5, 300}) {
        const Matrix x = random_matrix(rows, 40, 31 + rows, 1.0f);
        const auto keys = cim::stream_keys(3, rows);
        Matrix ref;
        for (const int threads : {1, 3, 4}) {
          util::ThreadPool::global().resize(threads);
          util::Rng rng(52);
          nn::Mlp mlp("mlp", kind, 40, 72, rng, 0.3f);
          if (analog) {
            std::vector<nn::Linear*> lins;
            mlp.collect_linears(lins);
            std::uint64_t seed = 60;
            for (nn::Linear* lin : lins) {
              lin->to_analog(everything_on(threads), {}, seed++);
            }
          }
          const Matrix y = mlp.forward_keyed(x, keys);
          const std::string where =
              "mlp_kind=" + std::to_string(static_cast<int>(kind)) +
              " analog=" + std::to_string(analog) +
              " rows=" + std::to_string(rows) +
              " threads=" + std::to_string(threads);
          if (threads == 1) ref = y;
          EXPECT_TRUE(bitwise_equal(y, ref)) << where;
          if (!analog) {
            EXPECT_TRUE(bitwise_equal(mlp.forward(x), y)) << where;
          }
        }
      }
    }
  }
  util::ThreadPool::global().resize(1);
}

TEST(ThreadInvariance, StreamsDecorrelateButReplay) {
  const Matrix w = random_matrix(40, 30, 11);
  const Matrix x = random_matrix(3, 40, 12, 1.0f);
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 32;
  cfg.tile_cols = 24;
  const auto keys0 = cim::stream_keys(0, x.rows());
  const auto keys1 = cim::stream_keys(1, x.rows());
  cim::AnalogMatmul unit(w, {}, cfg, 1234);
  const Matrix y1 = unit.forward(x, keys0);
  const Matrix y2 = unit.forward(x, keys1);
  // Distinct streams draw fresh noise: it must not repeat.
  EXPECT_FALSE(bitwise_equal(y1, y2));
  // A stream replays on the same unit, whatever ran before it...
  EXPECT_TRUE(bitwise_equal(unit.forward(x, keys0), y1));
  // ...and on a reconstructed one, in any order.
  cim::AnalogMatmul again(w, {}, cfg, 1234);
  EXPECT_TRUE(bitwise_equal(again.forward(x, keys1), y2));
  EXPECT_TRUE(bitwise_equal(again.forward(x, keys0), y1));
}

// --- statistical equivalence of the relayout -------------------------
// The stream relayout changed WHICH pseudo-random numbers each noise
// source consumes, never their distribution. For each knob, compare the
// empirical mean/std of the injected error against the analytic value
// over many noise streams.

struct Moments {
  double mean = 0.0;
  double std = 0.0;
};

/// Runs `reps` single-token forwards of a [k x 1] unit, rep r on stream
/// r, and returns the moments of (y - y_clean).
Moments error_moments(const cim::TileConfig& noisy_cfg, std::uint64_t seed,
                      int reps) {
  const std::int64_t k = 32;
  const Matrix w = random_matrix(k, 1, 5151);
  const Matrix x = random_matrix(1, k, 5252, 1.0f);
  cim::AnalogMatmul clean_unit(w, {}, cim::TileConfig::ideal(), seed);
  const float clean = clean_unit.forward(x, cim::stream_keys(0, 1)).at(0, 0);
  cim::AnalogMatmul unit(w, {}, noisy_cfg, seed);
  double sum = 0.0, sq = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double e =
        double(unit.forward(x, cim::stream_keys(r, 1)).at(0, 0)) - clean;
    sum += e;
    sq += e * e;
  }
  const double mean = sum / reps;
  return {mean, std::sqrt(std::max(0.0, sq / reps - mean * mean))};
}

TEST(StreamStatistics, OutputNoiseMomentsMatchAnalytic) {
  const float sigma = 0.1f;
  const std::int64_t k = 32;
  const Matrix w = random_matrix(k, 1, 5151);
  const Matrix x = random_matrix(1, k, 5252, 1.0f);
  float gamma = 0.0f, alpha = 0.0f;
  for (std::int64_t i = 0; i < k; ++i) {
    gamma = std::max(gamma, std::fabs(w.at(i, 0)));
    alpha = std::max(alpha, std::fabs(x.at(0, i)));
  }
  // y = alpha * gamma * (w_hat . x_hat + n), n ~ N(0, sigma).
  const double expected = double(alpha) * gamma * sigma;
  const auto m =
      error_moments(cim::TileConfig::ideal_except_out_noise(sigma), 99, 2000);
  EXPECT_NEAR(m.mean, 0.0, 0.1 * expected);
  EXPECT_NEAR(m.std / expected, 1.0, 0.06);
}

TEST(StreamStatistics, InputNoiseMomentsMatchAnalytic) {
  const float sigma = 0.05f;
  const std::int64_t k = 32;
  const Matrix w = random_matrix(k, 1, 5151);
  const Matrix x = random_matrix(1, k, 5252, 1.0f);
  float alpha = 0.0f;
  double w_l2 = 0.0;
  for (std::int64_t i = 0; i < k; ++i) {
    alpha = std::max(alpha, std::fabs(x.at(0, i)));
    w_l2 += double(w.at(i, 0)) * w.at(i, 0);
  }
  // y error = alpha * gamma * sum_k w_hat_k n_k = alpha * (w . n)/|.|:
  // std = alpha * sigma * ||w||_2 (gamma cancels against w_hat).
  const double expected = double(alpha) * sigma * std::sqrt(w_l2);
  const auto m =
      error_moments(cim::TileConfig::ideal_except_in_noise(sigma), 98, 2000);
  EXPECT_NEAR(m.mean, 0.0, 0.1 * expected);
  EXPECT_NEAR(m.std / expected, 1.0, 0.06);
}

TEST(StreamStatistics, ReadNoiseMomentsMatchAnalytic) {
  const float sigma_r = 0.05f;
  const std::int64_t k = 32;
  const Matrix w = random_matrix(k, 1, 5151);
  const Matrix x = random_matrix(1, k, 5252, 1.0f);
  float gamma = 0.0f, alpha = 0.0f;
  for (std::int64_t i = 0; i < k; ++i) {
    gamma = std::max(gamma, std::fabs(w.at(i, 0)));
    alpha = std::max(alpha, std::fabs(x.at(0, i)));
  }
  double xhat_l2 = 0.0;
  for (std::int64_t i = 0; i < k; ++i) {
    const double v = double(x.at(0, i)) / alpha;
    xhat_l2 += v * v;
  }
  // Aggregated read noise: n ~ N(0, sigma_r * ||x_hat||_2) on the
  // pre-ADC accumulation, scaled by alpha * gamma at the output.
  const double expected =
      double(alpha) * gamma * sigma_r * std::sqrt(xhat_l2);
  const auto m =
      error_moments(cim::TileConfig::ideal_except_w_noise(sigma_r), 97, 2000);
  EXPECT_NEAR(m.mean, 0.0, 0.1 * expected);
  EXPECT_NEAR(m.std / expected, 1.0, 0.06);
}

}  // namespace
}  // namespace nora
