// Reproduces paper Fig. 4: kernel-density-style comparison of the
// normalized activation vs query-weight distribution of layer 2 of the
// Mistral-like model, plus their kurtosis.
//
// Expected shape: activations have extreme kurtosis driven by a few
// outlier channels (paper: 113.61) while weights are near-Gaussian
// (paper: 1.25); zooming into low densities shows the activation's
// long tail.
//
//   ./fig4_distribution [--model=mistral-7b-sim] [--layer=1] [--bins=41]
#include <cmath>
#include <cstdio>

#include "eval/synthlambada.hpp"
#include "model/zoo.hpp"
#include "tensor/stats.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace nora;

namespace {
std::vector<float> normalized(std::span<const float> xs) {
  const double sd = stats::stddev(xs);
  std::vector<float> out(xs.begin(), xs.end());
  if (sd > 0) {
    for (auto& v : out) v = static_cast<float>(v / sd);
  }
  return out;
}

void print_kde(const char* label, const stats::Histogram& h) {
  std::printf("%s\n", label);
  const double peak = *std::max_element(h.density.begin(), h.density.end());
  for (std::size_t b = 0; b < h.density.size(); ++b) {
    const double x = h.lo + (b + 0.5) * h.bin_width();
    const int bar =
        peak > 0 ? static_cast<int>(60.0 * h.density[b] / peak) : 0;
    std::printf("  %7.2f | %-60s %.4f\n", x, std::string(bar, '#').c_str(),
                h.density[b]);
  }
}
}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string name = cli.get("model", "mistral-7b-sim");
  const int layer = static_cast<int>(cli.get_int("layer", 1));  // "layer 2"
  const int bins = static_cast<int>(cli.get_int("bins", 41));

  const model::ModelSpec spec = model::spec_by_name(name);
  auto model = model::get_or_train(spec);
  const eval::SynthLambada task(spec.task);

  if (layer < 0 || layer >= static_cast<int>(model->blocks().size())) {
    std::fprintf(stderr, "layer %d out of range\n", layer);
    return 1;
  }
  // Capture the activations entering the QKV projection of the chosen
  // layer (the paper plots the input of the query projection).
  nn::Linear& qkv = model->blocks()[static_cast<std::size_t>(layer)]
                        .attention().qkv();
  qkv.set_capture_full(true);
  for (const auto& tokens : task.calibration_set(32)) {
    model->infer(tokens);
  }
  const Matrix& acts = qkv.captured_inputs();
  // Query-projection weight = the first d_model output columns of QKV.
  const Matrix& w = qkv.weight().value;
  std::vector<float> wq;
  wq.reserve(static_cast<std::size_t>(w.rows() * model->config().d_model));
  for (std::int64_t r = 0; r < w.rows(); ++r) {
    for (std::int64_t c = 0; c < model->config().d_model; ++c) {
      wq.push_back(w.at(r, c));
    }
  }
  const std::vector<float> a_norm = normalized(
      std::span<const float>(acts.data(), static_cast<std::size_t>(acts.size())));
  const std::vector<float> w_norm = normalized(wq);

  std::printf("Fig. 4 — activation vs query-weight distribution, %s layer %d\n\n",
              name.c_str(), layer + 1);
  std::printf("kurtosis: activation %.2f, weight %.2f (paper: 113.61 vs 1.25)\n\n",
              stats::kurtosis(a_norm), stats::kurtosis(w_norm));

  const auto ha = stats::histogram(a_norm, -8.0, 8.0, bins);
  const auto hw = stats::histogram(w_norm, -8.0, 8.0, bins);
  print_kde("(a) normalized activation density:", ha);
  std::printf("\n");
  print_kde("    normalized query-weight density:", hw);

  // (b) zoom into the low-density region: the activation long tail.
  std::printf("\n(b) tail mass |x| > 4 sigma:  activation %.5f   weight %.5f\n",
              stats::outlier_fraction(a_norm, 4.0),
              stats::outlier_fraction(w_norm, 4.0));
  std::printf("    max |x| / sigma:          activation %.1f      weight %.1f\n",
              double(*std::max_element(a_norm.begin(), a_norm.end(),
                                       [](float x, float y) {
                                         return std::fabs(x) < std::fabs(y);
                                       })),
              double(*std::max_element(w_norm.begin(), w_norm.end(),
                                       [](float x, float y) {
                                         return std::fabs(x) < std::fabs(y);
                                       })));
  std::printf("\npaper shape check: activation kurtosis orders of magnitude "
              "above weight kurtosis,\nwith visible long tails.\n");
  return 0;
}
