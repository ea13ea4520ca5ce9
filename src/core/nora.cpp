#include "core/nora.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "tensor/stats.hpp"
#include "util/thread_pool.hpp"

namespace nora::core {

std::vector<LayerCalibration> calibrate(nn::TransformerLM& model,
                                        const eval::SynthLambada& task,
                                        int n_examples) {
  if (model.is_analog()) {
    throw std::logic_error("calibrate: model must be digital during calibration");
  }
  const auto linears = model.linear_layers();
  for (auto* lin : linears) lin->set_capture_input(true);
  for (const auto& tokens : task.calibration_set(n_examples)) {
    model.infer(tokens);
  }
  std::vector<LayerCalibration> out;
  out.reserve(linears.size());
  for (auto* lin : linears) {
    LayerCalibration cal;
    cal.layer = lin->name();
    cal.act_abs_max.assign(lin->input_abs_max().begin(), lin->input_abs_max().end());
    cal.w_abs_max = lin->weight_row_abs_max();
    out.push_back(std::move(cal));
    lin->set_capture_input(false);
  }
  return out;
}

std::vector<float> smoothing_vector(const LayerCalibration& cal, float lambda,
                                    float s_min) {
  if (cal.act_abs_max.size() != cal.w_abs_max.size()) {
    throw std::invalid_argument("smoothing_vector: channel count mismatch");
  }
  std::vector<float> s(cal.act_abs_max.size(), 1.0f);
  for (std::size_t k = 0; k < s.size(); ++k) {
    const float ax = cal.act_abs_max[k];
    const float wx = cal.w_abs_max[k];
    // s_k = max|x_k|^lambda / max|w_k|^(1-lambda). Dead channels (no
    // activation or zero weight row) keep s = 1.
    if (ax <= 0.0f || wx <= 0.0f) continue;
    const float v = std::pow(ax, lambda) / std::pow(wx, 1.0f - lambda);
    s[k] = std::isfinite(v) ? std::max(v, s_min) : 1.0f;
  }
  return s;
}

std::vector<LayerCalibration> deploy_analog(nn::TransformerLM& model,
                                            const eval::SynthLambada& task,
                                            const DeployOptions& opts,
                                            faults::DeploymentReport* report) {
  // Grow the execution pool up front so the first forward doesn't pay
  // the thread-spawn cost (a no-op at the default n_threads = 1).
  if (opts.tile.n_threads > 1) {
    util::ThreadPool::global().ensure(opts.tile.n_threads);
  }
  std::vector<LayerCalibration> cals;
  if (opts.nora.enabled) {
    cals = calibrate(model, task, opts.nora.calib_examples);
  }
  const auto linears = model.linear_layers();
  for (std::size_t i = 0; i < linears.size(); ++i) {
    std::vector<float> s;
    if (opts.nora.enabled) {
      s = smoothing_vector(cals[i], opts.nora.lambda, opts.nora.s_min);
    }
    linears[i]->to_analog(opts.tile, std::move(s),
                          util::derive_seed(opts.seed, linears[i]->name()));
  }

  if (report == nullptr && !opts.health.enabled) return cals;

  faults::DeploymentReport local;
  faults::DeploymentReport& rep = report != nullptr ? *report : local;
  rep.layers.assign(linears.size(), faults::LayerReport{});
  for (std::size_t i = 0; i < linears.size(); ++i) {
    rep.layers[i].layer = linears[i]->name();
    rep.layers[i].faults = linears[i]->analog()->fault_stats();
  }
  if (!opts.health.enabled) return cals;

  const HealthPolicy& hp = opts.health;
  const auto fall_back = [&](std::size_t i, std::string reason) {
    linears[i]->to_digital();
    rep.layers[i].analog = false;
    rep.layers[i].reason = std::move(reason);
  };
  // (1) Structural check: a layer still riddled with faults after spare
  // remapping is beyond repair — no point probing it.
  for (std::size_t i = 0; i < linears.size(); ++i) {
    const double f = rep.layers[i].faults.residual_fault_fraction();
    if (f > hp.max_residual_fault_fraction) {
      char why[96];
      std::snprintf(why, sizeof why,
                    "residual fault density %.4f exceeds %.4f", f,
                    hp.max_residual_fault_fraction);
      fall_back(i, why);
    }
  }
  // (2) Probe forwards: catch non-finite outputs (the AnalogMatmul guard
  // names the offending layer), degrading one layer per attempt. Every
  // attempt scores probe example e on stream e.
  const auto probe_set = task.calibration_set(hp.probe_examples);
  for (std::size_t attempt = 0; attempt <= linears.size(); ++attempt) {
    for (auto* lin : linears) {
      if (lin->is_analog()) lin->analog()->reset_stats();
    }
    try {
      for (std::size_t e = 0; e < probe_set.size(); ++e) {
        model.infer(probe_set[e], e);
      }
      break;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      bool matched = false;
      for (std::size_t i = 0; i < linears.size(); ++i) {
        if (!linears[i]->is_analog()) continue;
        if (what.find("AnalogMatmul[" + linears[i]->name() + "]") !=
            std::string::npos) {
          rep.layers[i].nonfinite_output = true;
          fall_back(i, "non-finite output during health probe");
          matched = true;
          break;
        }
      }
      if (!matched) throw;  // not an analog-layer guard: genuine error
    }
  }
  // (3) ADC saturation over the probe batch.
  for (std::size_t i = 0; i < linears.size(); ++i) {
    if (!linears[i]->is_analog()) continue;
    const double rate = linears[i]->analog()->adc_saturation_rate();
    rep.layers[i].adc_saturation_rate = rate;
    if (rate > hp.max_adc_saturation_rate) {
      char why[96];
      std::snprintf(why, sizeof why,
                    "ADC saturation rate %.3f exceeds %.3f", rate,
                    hp.max_adc_saturation_rate);
      fall_back(i, why);
    }
  }
  // (4) An analog layer is a pure function of (seed, x, keys), so the
  // probe leaves only statistics behind. Clearing them makes deployment
  // with health checking leave the same analog state as without it.
  for (std::size_t i = 0; i < linears.size(); ++i) {
    if (linears[i]->is_analog()) linears[i]->analog()->reset_stats();
  }
  return cals;
}

std::vector<LayerDistStats> distribution_stats(nn::TransformerLM& model,
                                               const eval::SynthLambada& task,
                                               const NoraOptions& nora,
                                               bool apply_nora) {
  if (model.is_analog()) {
    throw std::logic_error("distribution_stats: run on the digital model");
  }
  // One pass for ranges (to build s), one pass capturing full inputs.
  const auto cals = calibrate(model, task, nora.calib_examples);
  const auto linears = model.linear_layers();
  for (auto* lin : linears) lin->set_capture_full(true);
  for (const auto& tokens : task.calibration_set(nora.calib_examples)) {
    model.infer(tokens);
  }
  std::vector<LayerDistStats> out;
  out.reserve(linears.size());
  for (std::size_t i = 0; i < linears.size(); ++i) {
    nn::Linear* lin = linears[i];
    // These analytics describe the fp32 reference distributions; a layer
    // already re-targeted to a quantized backend (e.g. kept INT8 after a
    // degraded deployment) would contribute misleading rows.
    if (lin->is_int8()) {
      lin->set_capture_full(false);
      continue;
    }
    LayerDistStats st;
    st.layer = lin->name();
    Matrix x = lin->captured_inputs();
    Matrix w = lin->weight().value;
    if (apply_nora) {
      const auto s = smoothing_vector(cals[i], nora.lambda, nora.s_min);
      for (std::int64_t t = 0; t < x.rows(); ++t) {
        auto row = x.row(t);
        for (std::int64_t c = 0; c < x.cols(); ++c) row[c] /= s[static_cast<std::size_t>(c)];
      }
      for (std::int64_t k = 0; k < w.rows(); ++k) {
        auto row = w.row(k);
        const float sk = s[static_cast<std::size_t>(k)];
        for (auto& v : row) v *= sk;
      }
    }
    st.input_kurtosis = stats::kurtosis(x);
    st.weight_kurtosis = stats::kurtosis(w);
    out.push_back(std::move(st));
    lin->set_capture_full(false);
  }
  return out;
}

void deploy_digital_int8(nn::TransformerLM& model,
                         const eval::SynthLambada& task,
                         const NoraOptions& nora, bool static_act) {
  std::vector<LayerCalibration> cals;
  if (nora.enabled || static_act) {
    cals = calibrate(model, task, nora.calib_examples);
  }
  const auto linears = model.linear_layers();
  for (std::size_t i = 0; i < linears.size(); ++i) {
    std::vector<float> s;
    if (nora.enabled) s = smoothing_vector(cals[i], nora.lambda, nora.s_min);
    float static_scale = 0.0f;
    if (static_act) {
      // Calibrated per-tensor range of the (rescaled) activations.
      float amax = 0.0f;
      for (std::size_t k = 0; k < cals[i].act_abs_max.size(); ++k) {
        const float sk = s.empty() ? 1.0f : s[k];
        amax = std::max(amax, cals[i].act_abs_max[k] / sk);
      }
      static_scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    }
    linears[i]->to_int8(std::move(s), static_scale);
  }
}

void set_read_time(nn::TransformerLM& model, float t_seconds) {
  bool any_analog = false;
  bool any_drift = false;
  for (auto* lin : model.linear_layers()) {
    if (!lin->is_analog()) continue;
    any_analog = true;
    any_drift |= lin->analog()->config().drift_enabled;
    lin->analog()->set_read_time(t_seconds);
  }
  if (t_seconds > 0.0f && any_analog && !any_drift) {
    throw std::logic_error(
        "core::set_read_time: no analog layer was deployed with "
        "tile.drift_enabled — advancing the drift clock would silently "
        "measure nothing");
  }
}

void refresh_analog_layer(nn::Linear& layer, std::uint64_t deploy_seed) {
  const cim::AnalogMatmul* analog = layer.analog();
  if (analog == nullptr) {
    throw std::logic_error("refresh_analog_layer: layer is not analog");
  }
  const cim::TileConfig cfg = analog->config();
  std::vector<float> s(analog->s().begin(), analog->s().end());
  const auto wear = analog->wear();  // copy: to_analog destroys the backend
  layer.to_analog(cfg, std::move(s), util::derive_seed(deploy_seed, layer.name()));
  for (const auto& rec : wear) {
    layer.analog()->wear_stuck(rec.k, rec.n, rec.value);
  }
}

std::vector<LayerDistStats> scaling_factor_stats(nn::TransformerLM& model) {
  std::vector<LayerDistStats> out;
  for (auto* lin : model.linear_layers()) {
    // Layers degraded to the digital path have no analog backend, and an
    // analog layer that never ran a forward has no alpha statistics —
    // both would otherwise show up as misleading zero rows.
    if (!lin->is_analog()) continue;
    if (lin->analog()->stats().alpha_count == 0) continue;
    LayerDistStats st;
    st.layer = lin->name();
    st.alpha_gamma_gmax = lin->analog()->mean_alpha_gamma_gmax();
    out.push_back(std::move(st));
  }
  return out;
}

}  // namespace nora::core
