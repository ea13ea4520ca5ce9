// Quickstart: the analog CIM tile simulator and NORA rescaling on a raw
// GEMM — no language model involved.
//
// We build an activation matrix with LLM-style outlier channels, map a
// weight matrix onto simulated analog tiles at the paper's Table II
// operating point, and compare the matrix-product error of the naive
// mapping vs the NORA-rescaled mapping.
//
//   ./quickstart [--rows=N] [--cols=N] [--tokens=N] [--lambda=F]
#include <cmath>
#include <cstdio>
#include <vector>

#include "cim/analog_matmul.hpp"
#include "cim/tile_config.hpp"
#include "tensor/ops.hpp"
#include "tensor/stats.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace nora;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::int64_t k = cli.get_int("rows", 256);    // input channels
  const std::int64_t n = cli.get_int("cols", 256);    // output channels
  const std::int64_t t = cli.get_int("tokens", 64);
  const float lambda = static_cast<float>(cli.get_double("lambda", 0.5));

  util::Rng rng(1);
  util::Rng wrng = rng.split("w"), xrng = rng.split("x");

  // Weights: near-Gaussian (like real LLM weights, paper Fig. 4).
  Matrix w(k, n);
  w.fill_gaussian(wrng, 1.0f / std::sqrt(static_cast<float>(k)));

  // Activations: Gaussian with 5% of channels amplified 20x -> the
  // long-tail, high-kurtosis distribution that breaks A/D conversion.
  Matrix x(t, k);
  x.fill_gaussian(xrng, 1.0f);
  for (std::int64_t c = 0; c < k; c += 20) {
    for (std::int64_t r = 0; r < t; ++r) x.at(r, c) *= 20.0f;
  }
  std::printf("activation kurtosis: %.1f   weight kurtosis: %.2f\n",
              stats::kurtosis(x), stats::kurtosis(w));

  const Matrix ref = ops::matmul(x, w);

  // NORA smoothing vector: s_k = max|x_k|^lambda / max|w_k|^(1-lambda).
  const auto ax = ops::col_abs_max(x);
  const auto wx = ops::row_abs_max(w);
  std::vector<float> s(static_cast<std::size_t>(k), 1.0f);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (ax[i] > 0.0f && wx[i] > 0.0f) {
      s[i] = std::pow(ax[i], lambda) / std::pow(wx[i], 1.0f - lambda);
    }
  }

  const cim::TileConfig hw = cim::TileConfig::paper_table2();
  util::Table table({"mapping", "output MSE", "rel err (%)", "mean alpha*gamma"});
  for (const bool use_nora : {false, true}) {
    cim::AnalogMatmul unit(w, use_nora ? s : std::vector<float>{}, hw, 42);
    const Matrix y = unit.forward(x, cim::stream_keys(0, x.rows()));
    const double err = ops::mse(y, ref);
    const double rel =
        std::sqrt(err) / (ops::frobenius_norm(ref) / std::sqrt(double(ref.size())));
    table.add_row({use_nora ? "NORA rescaled" : "naive",
                   util::Table::num(err, 6), util::Table::num(100.0 * rel, 2),
                   util::Table::num(unit.mean_alpha() * unit.mean_gamma(), 4)});
  }
  table.print("\nAnalog GEMM at the paper's Table II operating point:");
  std::printf("\nNORA shifts the conversion burden from activations to weights:\n"
              "smaller alpha*gamma means larger ADC input current, higher SNR.\n");
  return 0;
}
