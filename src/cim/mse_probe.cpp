#include "cim/mse_probe.hpp"

#include <cmath>

#include "cim/analog_matmul.hpp"
#include "tensor/ops.hpp"

namespace nora::cim {

double feature_map_mse(const TileConfig& cfg, const MseProbeOptions& opts) {
  util::Rng rng(opts.seed);
  util::Rng wrng = rng.split("weights");
  util::Rng xrng = rng.split("inputs");
  Matrix w(opts.k, opts.n);
  w.fill_gaussian(wrng, 1.0f / std::sqrt(static_cast<float>(opts.k)));
  Matrix x(opts.t, opts.k);
  x.fill_gaussian(xrng, 1.0f);
  const Matrix ref = ops::matmul(x, w);
  const std::vector<StreamKey> keys = stream_keys(0, opts.t);
  double total = 0.0;
  for (int r = 0; r < opts.repeats; ++r) {
    AnalogMatmul unit(w, {}, cfg, util::derive_seed(opts.seed, "probe-" + std::to_string(r)));
    total += ops::mse(unit.forward(x, keys), ref);
  }
  return total / opts.repeats;
}

std::function<double(double)> mse_of_knob(
    std::function<TileConfig(double)> make_cfg, MseProbeOptions opts) {
  return [make_cfg = std::move(make_cfg), opts](double param) {
    return feature_map_mse(make_cfg(param), opts);
  };
}

}  // namespace nora::cim
