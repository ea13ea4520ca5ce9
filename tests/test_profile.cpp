// Tests for persistent NORA calibration profiles.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/profile.hpp"
#include "tensor/ops.hpp"

namespace nora::core {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

nn::TransformerLM make_model(const eval::SynthLambadaConfig& task_cfg) {
  nn::TransformerConfig cfg;
  cfg.vocab_size = task_cfg.vocab_size();
  cfg.max_seq = task_cfg.seq_len;
  cfg.d_model = 24;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 48;
  cfg.norm_gain = std::vector<float>(24, 1.0f);
  cfg.norm_gain[7] = 15.0f;
  return nn::TransformerLM(cfg);
}

TEST(Profile, RoundTripPreservesEverything) {
  const eval::SynthLambadaConfig task_cfg;
  const eval::SynthLambada task(task_cfg);
  auto model = make_model(task_cfg);
  NoraOptions opts;
  opts.lambda = 0.75f;
  opts.calib_examples = 4;
  const NoraProfile profile = make_profile(model, task, opts);
  const std::string path = temp_path("nora_test_profile.npro");
  save_profile(path, profile);
  const NoraProfile back = load_profile(path);
  EXPECT_EQ(back.lambda, 0.75f);
  ASSERT_EQ(back.layers.size(), profile.layers.size());
  for (std::size_t i = 0; i < back.layers.size(); ++i) {
    EXPECT_EQ(back.layers[i].layer, profile.layers[i].layer);
    EXPECT_EQ(back.layers[i].act_abs_max, profile.layers[i].act_abs_max);
    EXPECT_EQ(back.layers[i].w_abs_max, profile.layers[i].w_abs_max);
  }
  std::remove(path.c_str());
}

TEST(Profile, DeployFromProfileMatchesDirectDeploy) {
  const eval::SynthLambadaConfig task_cfg;
  const eval::SynthLambada task(task_cfg);
  const auto ex = task.make_example("test", 0);
  NoraOptions opts;
  opts.calib_examples = 4;

  // Direct: calibrate + deploy in one go.
  auto direct = make_model(task_cfg);
  DeployOptions dopts;
  dopts.tile = cim::TileConfig::paper_table2();
  dopts.nora = opts;
  dopts.seed = 99;
  deploy_analog(direct, task, dopts);
  const Matrix y_direct = direct.infer(ex.tokens);

  // Via profile: calibrate, save, load, deploy on a fresh twin.
  auto source = make_model(task_cfg);
  const NoraProfile profile = make_profile(source, task, opts);
  const std::string path = temp_path("nora_test_profile2.npro");
  save_profile(path, profile);
  auto twin = make_model(task_cfg);
  deploy_analog_with_profile(twin, load_profile(path),
                             cim::TileConfig::paper_table2(), opts.s_min, 99);
  const Matrix y_profile = twin.infer(ex.tokens);
  EXPECT_EQ(ops::mse(y_direct, y_profile), 0.0);  // identical seeds + s
  std::remove(path.c_str());
}

TEST(Profile, RejectsMismatchedModel) {
  const eval::SynthLambadaConfig task_cfg;
  const eval::SynthLambada task(task_cfg);
  auto model = make_model(task_cfg);
  NoraOptions opts;
  opts.calib_examples = 2;
  NoraProfile profile = make_profile(model, task, opts);
  profile.layers.pop_back();
  EXPECT_THROW(deploy_analog_with_profile(model, profile,
                                          cim::TileConfig::ideal(), 1e-3f, 1),
               std::invalid_argument);
  NoraProfile renamed = make_profile(model, task, opts);
  renamed.layers[0].layer = "wrong.name";
  EXPECT_THROW(deploy_analog_with_profile(model, renamed,
                                          cim::TileConfig::ideal(), 1e-3f, 1),
               std::invalid_argument);
}

TEST(Profile, RejectsCorruptFiles) {
  EXPECT_THROW(load_profile("/nonexistent/profile.npro"), std::runtime_error);
  const std::string path = temp_path("nora_test_badprofile.npro");
  {
    std::ofstream f(path, std::ios::binary);
    f << "garbage";
  }
  EXPECT_THROW(load_profile(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nora::core
