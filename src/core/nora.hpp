// NORA — Noise-Optimized Rescaling (the paper's contribution, Sec. IV).
//
// For every analog-mapped linear layer, a per-input-channel rescale
//   s_k = max|x_k|^lambda / max|w_k|^(1-lambda)          (Sec. IV)
// is folded into the tile's scaling factors: weights are programmed as
// w_kj * s_k / gamma'_j (Eq. 6) and inputs streamed as x_k / (alpha'_i s_k)
// (Eq. 7). The product of scale-backs alpha'_i * gamma'_j (Eq. 8) shrinks,
// which (a) tightens the input distribution entering the DAC (less
// quantization/clipping loss) and (b) raises the output current into the
// ADC (higher SNR against additive Gaussian noise). The transform is
// mathematically exact — with all non-idealities disabled the model
// output is unchanged.
//
// max|x_k| comes from a small offline calibration pass (the paper uses
// the Pile; we use held-out SynthLambada sequences), exploiting that LLM
// activation outliers live in fixed channels regardless of input [4,33].
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cim/tile_config.hpp"
#include "eval/synthlambada.hpp"
#include "faults/deployment_report.hpp"
#include "nn/transformer.hpp"

namespace nora::core {

struct NoraOptions {
  bool enabled = true;
  /// Migration strength: 0 = all burden on weights' side unused (s from
  /// weights only), 1 = s from activations only. Paper follows
  /// SmoothQuant's default 0.5.
  float lambda = 0.5f;
  /// Lower clamp on s entries (guards dead channels).
  float s_min = 1e-3f;
  int calib_examples = 32;
};

struct LayerCalibration {
  std::string layer;
  std::vector<float> act_abs_max;  // per input channel, from calibration
  std::vector<float> w_abs_max;    // per input channel (row max of W)
};

/// Run the offline calibration pass on the *digital* model: record
/// per-channel max|x_k| at the input of every linear layer.
std::vector<LayerCalibration> calibrate(nn::TransformerLM& model,
                                        const eval::SynthLambada& task,
                                        int n_examples);

/// The NORA smoothing vector for one layer (clamped, NaN-safe).
std::vector<float> smoothing_vector(const LayerCalibration& cal, float lambda,
                                    float s_min);

/// Per-layer health check for fault-tolerant deployment: a layer whose
/// post-repair fault density, probe-time ADC saturation rate, or output
/// finiteness violates these thresholds is degraded to the digital
/// backend (graceful degradation instead of silent garbage).
struct HealthPolicy {
  bool enabled = false;
  /// Max tolerated fault density in the mapped columns after spare
  /// remapping.
  float max_residual_fault_fraction = 0.02f;
  /// Max tolerated ADC saturation rate over the probe batch.
  float max_adc_saturation_rate = 0.5f;
  /// Calibration sequences forwarded through the deployed model to
  /// probe saturation and non-finite outputs.
  int probe_examples = 2;
};

struct DeployOptions {
  cim::TileConfig tile;       // hardware operating point (Table II etc.)
                              // tile.n_threads sets the execution width
                              // of every deployed analog layer; deploy
                              // grows the global thread pool to match.
                              // Results are bit-identical for any value
                              // (see AnalogMatmul::forward).
  NoraOptions nora;           // nora.enabled = false -> naive mapping
  HealthPolicy health;        // off by default: no probe, no fallback
  std::uint64_t seed = 2025;  // per-layer analog seeds derive from this
};

/// Convert every linear layer of the model to the analog backend
/// (running calibration first if NORA is enabled). The model must
/// currently be digital. Returns the per-layer calibrations used.
///
/// When opts.health.enabled, a post-deployment health pass runs:
/// structurally broken layers (fault density beyond repair), layers
/// producing non-finite probe outputs, and layers saturating the ADC
/// beyond the policy threshold fall back to the digital path; surviving
/// analog layers have their statistics cleared, so the probe leaves no
/// trace (an analog layer's output depends only on its seed, input and
/// stream keys, never on earlier calls). If `report` is non-null
/// it is filled with the per-layer outcome (also when health checking is
/// disabled, in which case it is purely observational).
std::vector<LayerCalibration> deploy_analog(
    nn::TransformerLM& model, const eval::SynthLambada& task,
    const DeployOptions& opts, faults::DeploymentReport* report = nullptr);

// ---------------------------------------------------------------------
// Distribution analytics (Fig. 4 / Fig. 6).

struct LayerDistStats {
  std::string layer;
  double input_kurtosis = 0.0;   // of x (naive) or x / s (NORA)
  double weight_kurtosis = 0.0;  // of W (naive) or W * s (NORA)
  double alpha_gamma_gmax = 0.0; // only filled after analog forwards
};

/// Capture activations on the digital model over calibration data and
/// report per-layer input/weight kurtosis as they would enter the tiles,
/// i.e. after dividing/multiplying by this layer's s (pass lambda < 0 or
/// nora.enabled=false semantics via `apply_nora`).
std::vector<LayerDistStats> distribution_stats(nn::TransformerLM& model,
                                               const eval::SynthLambada& task,
                                               const NoraOptions& nora,
                                               bool apply_nora);

/// After analog forwards, collect mean alpha*gamma*g_max per layer.
/// Layers degraded to the digital path and analog layers that never ran
/// a forward are skipped instead of reported as zeros.
std::vector<LayerDistStats> scaling_factor_stats(nn::TransformerLM& model);

/// PCM drift: re-read every analog layer t seconds after programming.
/// Throws std::logic_error when t > 0 and the model holds analog layers
/// but none was deployed with tile.drift_enabled — advancing the clock
/// would silently measure nothing (a classic lifetime-sweep foot-gun).
void set_read_time(nn::TransformerLM& model, float t_seconds);

/// Reprogram one currently-analog layer from its original deployment
/// seed: the rescale vector and tile config are taken from the live
/// backend, so the result is the exact as-deployed analog state — drift
/// is reset and transient upsets are cleared. Permanent wear recorded on
/// the old backend is replayed onto the new one (reprogramming cannot
/// fix broken silicon). This is the refresh rung of the runtime
/// escalation ladder; it is also usable standalone.
void refresh_analog_layer(nn::Linear& layer, std::uint64_t deploy_seed);

/// Digital W8A8 INT8 deployment — the digital-core baseline family of
/// the paper's related work (Sec. VI). nora.enabled selects plain INT8
/// (false) vs SmoothQuant-rescaled INT8 (true); the rescale vector uses
/// the same calibration and formula as NORA. static_act selects static
/// per-tensor activation quantization (scales fixed from calibration —
/// the deployment mode SmoothQuant targets) instead of per-token
/// dynamic scaling.
void deploy_digital_int8(nn::TransformerLM& model,
                         const eval::SynthLambada& task,
                         const NoraOptions& nora, bool static_act = false);

}  // namespace nora::core
