// Tests for the hard-fault subsystem: fault-map sampling, stuck-at
// degradation, spare-column remapping, the program-verify-reprogram
// retry loop, health-check fallback — and the regression guarantee that
// fault-free configurations are bit-identical to the pre-fault-subsystem
// simulator (golden values captured from the seed build).
#include <gtest/gtest.h>

#include <cmath>

#include "cim/analog_matmul.hpp"
#include "core/nora.hpp"
#include "eval/evaluator.hpp"
#include "faults/fault_model.hpp"
#include "model/zoo.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"

namespace nora {
namespace {

Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed,
                     float std_dev = 0.5f) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.fill_gaussian(rng, std_dev);
  return m;
}

double rel_error(const Matrix& y, const Matrix& ref) {
  return std::sqrt(ops::mse(y, ref)) /
         (ops::frobenius_norm(ref) / std::sqrt(double(ref.size())));
}

TEST(FaultMap, DefaultConfigSamplesNothing) {
  EXPECT_FALSE(faults::FaultConfig{}.any());
  faults::FaultConfig cfg;
  cfg.stuck_zero_rate = 0.01f;
  EXPECT_TRUE(cfg.any());
  cfg = faults::FaultConfig{};
  cfg.tile_yield = 0.9f;
  EXPECT_TRUE(cfg.any());
}

TEST(FaultMap, SamplingRatesAndDeterminism) {
  faults::FaultConfig cfg;
  cfg.stuck_zero_rate = 0.10f;
  cfg.stuck_gmax_rate = 0.05f;
  cfg.dead_row_rate = 0.10f;
  util::Rng rng(42);
  const auto map = faults::FaultMap::sample(200, 100, cfg, rng);
  const double n = 200.0 * 100.0;
  // Stuck counts near their expectations (dead rows add stuck-zeros).
  EXPECT_GT(map.stuck_gmax_count(), 0.02 * n);
  EXPECT_LT(map.stuck_gmax_count(), 0.09 * n);
  EXPECT_GT(map.stuck_zero_count(), 0.05 * n);
  EXPECT_GT(map.dead_rows(), 4);
  EXPECT_LT(map.dead_rows(), 50);
  EXPECT_EQ(map.faulty_total(), map.stuck_zero_count() + map.stuck_gmax_count());
  // Dead rows force a full row of stuck-zero devices.
  EXPECT_GE(map.stuck_zero_count(), map.dead_rows() * 100);
  // Same seed, same map; different seed, different map.
  util::Rng rng2(42);
  const auto map2 = faults::FaultMap::sample(200, 100, cfg, rng2);
  std::int64_t diffs = 0;
  for (std::int64_t j = 0; j < 100; ++j) {
    for (std::int64_t k = 0; k < 200; ++k) {
      if (map.at(j, k) != map2.at(j, k)) ++diffs;
    }
  }
  EXPECT_EQ(diffs, 0);
  util::Rng rng3(43);
  const auto map3 = faults::FaultMap::sample(200, 100, cfg, rng3);
  for (std::int64_t j = 0; j < 100 && diffs == 0; ++j) {
    for (std::int64_t k = 0; k < 200; ++k) {
      if (map.at(j, k) != map3.at(j, k)) ++diffs;
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultMap, TileYieldKillsWholeTile) {
  faults::FaultConfig cfg;
  cfg.tile_yield = 0.0f;  // certain death
  util::Rng rng(7);
  const auto map = faults::FaultMap::sample(16, 8, cfg, rng);
  EXPECT_TRUE(map.tile_dead());
  EXPECT_EQ(map.faulty_total(), 16 * 8);
  EXPECT_DOUBLE_EQ(map.fault_fraction(), 1.0);
}

// Golden regression: with every fault knob at its default (zero), the
// analog output must be bit-identical across refactors of the fault
// subsystem. Values captured after the one-time runtime-stream relayout
// (counter-keyed per-work-item RNG streams, see DESIGN.md "Threading &
// RNG streams"); Table II config, 32x24 tile grid, seed 4242. Two
// forwards on streams 0 and 1 check that a fresh stream draws fresh
// noise exactly as the old sequential stream did.
TEST(FaultFreeRegression, BitIdenticalToSeedBuild) {
  const Matrix w = random_matrix(70, 50, 101);
  const Matrix x = random_matrix(5, 70, 202, 1.0f);
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 32;
  cfg.tile_cols = 24;
  cim::AnalogMatmul unit(w, {}, cfg, 4242);
  const Matrix y = unit.forward(x, cim::stream_keys(0, x.rows()));
  const Matrix y2 = unit.forward(x, cim::stream_keys(1, x.rows()));
  const struct { int t, j; float first, second; } golden[] = {
      {0, 0, 6.54166842f, 6.70757914f},   {0, 17, 5.7183094f, 5.7183094f},
      {0, 49, 3.99117732f, 4.56156254f},  {2, 0, 2.61159039f, 2.25431633f},
      {2, 17, -3.42510891f, -4.04196787f}, {2, 49, 4.47333384f, 4.00965929f},
      {4, 0, -2.54052782f, -3.13647461f}, {4, 17, -2.83991742f, -3.05528641f},
      {4, 49, 2.4728806f, 2.4728806f},
  };
  for (const auto& g : golden) {
    EXPECT_EQ(y.at(g.t, g.j), g.first) << "t=" << g.t << " j=" << g.j;
    EXPECT_EQ(y2.at(g.t, g.j), g.second) << "t=" << g.t << " j=" << g.j;
  }
}

TEST(FaultFreeRegression, NoraPathBitIdenticalToSeedBuild) {
  const Matrix w = random_matrix(70, 50, 101);
  const Matrix x = random_matrix(5, 70, 202, 1.0f);
  std::vector<float> s(70);
  util::Rng sr(303);
  for (auto& v : s) v = static_cast<float>(std::exp(sr.gaussian(0.0, 0.7)));
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 32;
  cfg.tile_cols = 24;
  cim::AnalogMatmul unit(w, s, cfg, 4242);
  const Matrix y = unit.forward(x, cim::stream_keys(0, x.rows()));
  const struct { int t, j; float v; } golden[] = {
      {1, 5, 6.26226425f}, {1, 33, 3.6862278f},
      {3, 5, -6.56141138f}, {3, 33, 2.44109011f},
  };
  for (const auto& g : golden) {
    EXPECT_EQ(y.at(g.t, g.j), g.v) << "t=" << g.t << " j=" << g.j;
  }
}

TEST(FaultInjection, StuckFaultsDegradeOutputMonotonically) {
  const Matrix w = random_matrix(96, 64, 31);
  const Matrix x = random_matrix(8, 96, 32, 1.0f);
  const Matrix ref = ops::matmul(x, w);
  const auto keys = cim::stream_keys(0, x.rows());
  double prev = -1.0;
  for (const double rate : {0.0, 0.01, 0.05, 0.2}) {
    cim::TileConfig cfg = cim::TileConfig::ideal();
    cfg.faults.stuck_zero_rate = static_cast<float>(rate);
    cim::AnalogMatmul unit(w, {}, cfg, 33);
    const double err = rel_error(unit.forward(x, keys), ref);
    EXPECT_GT(err, prev) << "rate " << rate;
    prev = err;
  }
  // Stuck-at-gmax is far more damaging than stuck-at-zero at equal rate
  // (a zeroed weight loses a contribution; a railed one adds a large,
  // arbitrary-signed current).
  cim::TileConfig zero_cfg = cim::TileConfig::ideal();
  zero_cfg.faults.stuck_zero_rate = 0.05f;
  cim::TileConfig gmax_cfg = cim::TileConfig::ideal();
  gmax_cfg.faults.stuck_gmax_rate = 0.05f;
  const double err_zero =
      rel_error(cim::AnalogMatmul(w, {}, zero_cfg, 34).forward(x, keys), ref);
  const double err_gmax =
      rel_error(cim::AnalogMatmul(w, {}, gmax_cfg, 34).forward(x, keys), ref);
  EXPECT_GT(err_gmax, err_zero);
}

TEST(FaultRepair, SpareColumnsRemapDeadBitlines) {
  const Matrix w = random_matrix(64, 48, 41);
  const Matrix x = random_matrix(6, 64, 42, 1.0f);
  const Matrix ref = ops::matmul(x, w);
  const auto keys = cim::stream_keys(0, x.rows());
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.faults.dead_col_rate = 0.25f;
  cim::AnalogMatmul broken(w, {}, cfg, 43);
  const double err_broken = rel_error(broken.forward(x, keys), ref);
  EXPECT_EQ(broken.fault_stats().cols_remapped, 0);
  EXPECT_GT(err_broken, 0.1);

  cim::TileConfig repaired_cfg = cfg;
  repaired_cfg.spare_cols = 24;
  cim::AnalogMatmul repaired(w, {}, repaired_cfg, 43);
  const auto stats = repaired.fault_stats();
  EXPECT_GT(stats.cols_remapped, 0);
  EXPECT_LT(stats.residual_fault_fraction(),
            stats.raw_fault_fraction());
  const double err_repaired = rel_error(repaired.forward(x, keys), ref);
  EXPECT_LT(err_repaired, 0.5 * err_broken);
}

TEST(FaultRepair, ProgramVerifyRetryShrinksProgrammingError) {
  const Matrix w = random_matrix(80, 40, 51);
  const Matrix x = random_matrix(6, 80, 52, 1.0f);
  const Matrix ref = ops::matmul(x, w);
  const auto keys = cim::stream_keys(0, x.rows());
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.prog_noise_scale = 6.0f;  // exaggerated single-shot error
  cfg.program_tolerance = 0.01f;
  cim::AnalogMatmul one_shot(w, {}, cfg, 53);
  const double err_one_shot = rel_error(one_shot.forward(x, keys), ref);
  EXPECT_EQ(one_shot.fault_stats().reprogram_devices, 0);

  cim::TileConfig retry_cfg = cfg;
  retry_cfg.max_program_retries = 5;
  cim::AnalogMatmul retried(w, {}, retry_cfg, 53);
  const auto stats = retried.fault_stats();
  EXPECT_GT(stats.reprogram_devices, 0);
  EXPECT_GE(stats.reprogram_rounds, stats.reprogram_devices);
  const double err_retried = rel_error(retried.forward(x, keys), ref);
  EXPECT_LT(err_retried, 0.5 * err_one_shot);
}

TEST(FaultRepair, StuckDevicesAreVerifyFailures) {
  const Matrix w = random_matrix(64, 32, 61);
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.prog_noise_scale = 1.0f;
  cfg.max_program_retries = 3;
  cfg.program_tolerance = 0.005f;
  cfg.faults.stuck_gmax_rate = 0.05f;
  cim::AnalogMatmul unit(w, {}, cfg, 62);
  const auto stats = unit.fault_stats();
  // Railed devices sit ~1 normalized unit from their target — every one
  // of them must be reported as beyond repair.
  EXPECT_GE(stats.verify_failures, stats.faulty_devices * 9 / 10);
}

TEST(FaultStats, SpareColumnsShrinkLogicalTileCapacity) {
  const Matrix w = random_matrix(40, 100, 71);
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.tile_rows = 64;
  cfg.tile_cols = 32;
  cfg.spare_cols = 8;  // 24 logical columns per tile -> ceil(100/24) = 5
  cim::AnalogMatmul unit(w, {}, cfg, 72);
  EXPECT_EQ(unit.fault_stats().tiles, 5);
  cfg.spare_cols = 32;  // no capacity left
  EXPECT_THROW(cim::AnalogMatmul(w, {}, cfg, 72), std::invalid_argument);
  // Ideal output is unaffected by the reserved spares.
  cim::TileConfig plain = cim::TileConfig::ideal();
  plain.tile_rows = 64;
  plain.tile_cols = 32;
  cim::TileConfig spared = plain;
  spared.spare_cols = 8;
  const Matrix x = random_matrix(4, 40, 73, 1.0f);
  const auto keys = cim::stream_keys(0, x.rows());
  const Matrix y_plain = cim::AnalogMatmul(w, {}, plain, 74).forward(x, keys);
  const Matrix y_spared = cim::AnalogMatmul(w, {}, spared, 74).forward(x, keys);
  EXPECT_LT(ops::mse(y_plain, y_spared), 1e-10);
}

TEST(NonFiniteGuard, NamesLayerTokenAndColumn) {
  const Matrix w = random_matrix(16, 8, 81);
  cim::TileConfig cfg = cim::TileConfig::ideal();
  cfg.scaling = cim::InputScaling::kNone;  // pass NaN straight through
  cim::AnalogMatmul unit(w, {}, cfg, 82);
  unit.set_label("blk0.mlp.up");
  Matrix x(3, 16);
  x.fill(0.25f);
  EXPECT_NO_THROW(unit.forward(x, cim::stream_keys(0, x.rows())));
  x.at(1, 4) = std::numeric_limits<float>::quiet_NaN();
  try {
    unit.forward(x, cim::stream_keys(1, x.rows()));
    FAIL() << "expected non-finite guard to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("blk0.mlp.up"), std::string::npos) << what;
    EXPECT_NE(what.find("token 1"), std::string::npos) << what;
  }
}

// --- end-to-end fault tolerance on a trained micro model ---

class FaultDeployTest : public ::testing::Test {
 protected:
  static eval::SynthLambadaConfig task_cfg() {
    eval::SynthLambadaConfig t;
    t.n_queries = 4;
    return t;
  }

  // Same micro model as the integration suite: planted outlier channels
  // make naive analog deployment lossy, so NORA has room to matter.
  static nn::TransformerLM* trained_model() {
    static std::unique_ptr<nn::TransformerLM> model = [] {
      nn::TransformerConfig arch;
      const auto t = task_cfg();
      arch.vocab_size = t.vocab_size();
      arch.max_seq = t.seq_len;
      arch.d_model = 48;
      arch.n_layers = 2;
      arch.n_heads = 4;
      arch.d_ff = 96;
      arch.seed = 11;
      model::OutlierSpec outliers{0.08f, 22.0f, 38.0f, 11};
      arch.norm_gain = model::planted_gains(arch.d_model, outliers);
      auto m = std::make_unique<nn::TransformerLM>(arch);
      model::compensate_planted_gains(*m);
      train::TrainConfig tc;
      tc.steps = 1200;
      tc.eval_every = 50;
      tc.target_accuracy = 0.95;
      tc.verbose = false;
      train::train_lm(*m, eval::SynthLambada(task_cfg()), tc);
      return m;
    }();
    return model.get();
  }

  static double eval_accuracy(nn::TransformerLM& m) {
    eval::EvalOptions eo;
    eo.n_examples = 64;
    eval::SynthLambadaConfig t = task_cfg();
    t.n_queries = 1;
    return eval::evaluate(m, eval::SynthLambada(t), eo).accuracy;
  }

  static double deploy_and_eval(nn::TransformerLM& model,
                                const core::DeployOptions& opts,
                                faults::DeploymentReport* report = nullptr) {
    model.to_digital();
    const eval::SynthLambada task(task_cfg());
    core::deploy_analog(model, task, opts, report);
    const double acc = eval_accuracy(model);
    model.to_digital();
    return acc;
  }
};

TEST_F(FaultDeployTest, AccuracyDegradesMonotonicallyWithFaultRate) {
  nn::TransformerLM& model = *trained_model();
  double prev = 2.0;
  std::vector<double> accs;
  for (const double rate : {0.0, 0.02, 0.1, 0.4}) {
    core::DeployOptions opts;
    opts.tile = cim::TileConfig::ideal();
    opts.tile.faults.stuck_zero_rate = static_cast<float>(0.8 * rate);
    opts.tile.faults.stuck_gmax_rate = static_cast<float>(0.2 * rate);
    const double acc = deploy_and_eval(model, opts);
    accs.push_back(acc);
    EXPECT_LE(acc, prev + 0.02) << "rate " << rate;  // monotone (small slack)
    prev = acc;
  }
  EXPECT_GE(accs.front(), 0.9);                 // fault-free is near fp32
  EXPECT_LT(accs.back(), accs.front() - 0.3);   // heavy faults are fatal
}

TEST_F(FaultDeployTest, RepairRecoversAccuracyAtModerateFaultRates) {
  nn::TransformerLM& model = *trained_model();
  core::DeployOptions clean;
  clean.tile = cim::TileConfig::paper_table2();
  clean.nora.enabled = true;
  const double acc_clean = deploy_and_eval(model, clean);

  core::DeployOptions faulty = clean;
  faulty.tile.faults.dead_col_rate = 0.15f;
  faulty.tile.faults.stuck_zero_rate = 0.01f;
  const double acc_faulty = deploy_and_eval(model, faulty);

  core::DeployOptions repaired = faulty;
  repaired.tile.spare_cols = 48;
  repaired.tile.max_program_retries = 3;
  faults::DeploymentReport report;
  const double acc_repaired = deploy_and_eval(model, repaired, &report);

  EXPECT_LT(acc_faulty, acc_clean - 0.1);  // faults hurt
  EXPECT_GT(acc_repaired, acc_faulty);     // repair claws accuracy back
  EXPECT_GE(acc_repaired, acc_clean - 0.08);
  std::int64_t remapped = 0;
  for (const auto& l : report.layers) remapped += l.faults.cols_remapped;
  EXPECT_GT(remapped, 0);
}

TEST_F(FaultDeployTest, UnrepairableLayersFallBackToDigitalWithReport) {
  nn::TransformerLM& model = *trained_model();
  model.to_digital();
  const double acc_digital = eval_accuracy(model);

  core::DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.tile.faults.stuck_zero_rate = 0.4f;  // far beyond any repair
  opts.health.enabled = true;
  opts.health.max_residual_fault_fraction = 0.02f;
  faults::DeploymentReport report;
  const double acc = deploy_and_eval(model, opts, &report);

  const auto n_layers = static_cast<int>(report.layers.size());
  EXPECT_GT(n_layers, 0);
  EXPECT_EQ(report.digital_fallbacks(), n_layers);
  EXPECT_EQ(report.analog_layers(), 0);
  for (const auto& l : report.layers) {
    EXPECT_FALSE(l.analog);
    EXPECT_NE(l.reason.find("residual fault density"), std::string::npos)
        << l.reason;
  }
  // Every layer degraded to digital: accuracy is exactly the digital one.
  EXPECT_EQ(acc, acc_digital);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("DIGITAL"), std::string::npos);
  EXPECT_NE(text.find("fallback"), std::string::npos);
}

TEST_F(FaultDeployTest, AdcSaturationTriggersFallback) {
  nn::TransformerLM& model = *trained_model();
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::ideal();
  opts.tile.adc_bits = 7;
  opts.tile.adc_bound = 0.05f;  // absurdly tight full scale: saturates
  opts.health.enabled = true;
  opts.health.max_adc_saturation_rate = 0.3f;
  faults::DeploymentReport report;
  deploy_and_eval(model, opts, &report);
  EXPECT_GT(report.digital_fallbacks(), 0);
  bool saw_reason = false;
  for (const auto& l : report.layers) {
    if (!l.analog && l.reason.find("ADC saturation") != std::string::npos) {
      saw_reason = true;
    }
  }
  EXPECT_TRUE(saw_reason);
}

TEST_F(FaultDeployTest, HealthProbeLeavesNoRngTrace) {
  nn::TransformerLM& model = *trained_model();
  const eval::SynthLambada task(task_cfg());
  const auto ex = task.make_example("test", 3);

  model.to_digital();
  core::DeployOptions plain;
  plain.tile = cim::TileConfig::paper_table2();
  core::deploy_analog(model, task, plain);
  const Matrix y_plain = model.infer(ex.tokens);
  std::vector<std::int64_t> reads_plain;
  for (nn::Linear* lin : model.linear_layers()) {
    reads_plain.push_back(lin->is_analog() ? lin->analog()->adc_reads() : -1);
  }

  model.to_digital();
  core::DeployOptions probed = plain;
  probed.health.enabled = true;
  faults::DeploymentReport report;
  core::deploy_analog(model, task, probed, &report);
  EXPECT_EQ(report.digital_fallbacks(), 0);
  const Matrix y_probed = model.infer(ex.tokens);
  std::vector<std::int64_t> reads_probed;
  for (nn::Linear* lin : model.linear_layers()) {
    reads_probed.push_back(lin->is_analog() ? lin->analog()->adc_reads() : -1);
  }
  model.to_digital();
  // Noise is keyed by stream, never by call history, and deploy clears
  // the probe's statistics, so health checking must perturb neither the
  // deployed outputs nor the counters read after them.
  EXPECT_EQ(ops::mse(y_plain, y_probed), 0.0);
  EXPECT_EQ(reads_plain, reads_probed);
}

}  // namespace
}  // namespace nora
