// Energy / latency / area comparison of analog CIM vs digital inference
// (the paper's "future work" evaluation, and the quantitative backing
// for its introduction's energy-efficiency motivation).
//
// Prints, for each zoo model: per-forward energy and latency on digital
// fp32, digital INT8, and analog CIM at the Table II operating point,
// with the analog energy breakdown (ADC / DAC / crossbar) — plus the
// ADC-resolution sweep showing where the analog advantage erodes
// (ADC energy scales exponentially in bits, the classic analog-CIM
// design tension the paper's 7-bit choice reflects).
//
// Besides the tables/CSVs, --out writes one machine-readable JSON report
// so CI and EXPERIMENTS.md can diff energy/latency numbers across PRs.
// Every DeviceCosts constant is a --flag (see cost/device_costs_cli.hpp).
//
//   ./cost_model [--tokens=32] [--out=results/cost_model.json]
//                [--tile-read-ns=100] [--adc-fom-fj=30] ...
#include <cstdio>
#include <string>

#include "cost/cost_model.hpp"
#include "cost/device_costs_cli.hpp"
#include "model/zoo.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace nora;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::int64_t tokens = cli.get_int("tokens", 32);
  const std::string out_path = cli.get("out", "results/cost_model.json");
  const cost::DeviceCosts dev = cost::device_costs_from_cli(cli);
  cli.check_unknown();
  const cim::TileConfig hw = cim::TileConfig::paper_table2();

  std::printf("Analytic cost model — energy/latency of all linear layers, "
              "one forward pass over %lld tokens\n\n",
              static_cast<long long>(tokens));

  std::string json = "{\"tokens\":" + std::to_string(tokens) +
                     ",\"tile_read_ns\":" +
                     std::to_string(dev.tile_read_latency_ns) +
                     ",\"models\":[";
  bool first_model_entry = true;

  util::Table table({"model", "backend", "energy (nJ)", "latency (us)",
                     "adc (nJ)", "dac (nJ)", "cells (nJ)", "macs (nJ)",
                     "mem (nJ)"});
  for (const auto& name : model::all_models()) {
    auto m = model::get_or_train(name, /*verbose=*/false);
    for (const auto backend :
         {cost::Backend::kDigitalFp32, cost::Backend::kDigitalInt8,
          cost::Backend::kAnalogCim}) {
      const auto c = cost::model_linear_cost(*m, tokens, backend, hw, dev);
      double adc = 0.0, dac = 0.0, cell = 0.0, mac = 0.0, mem = 0.0;
      for (const auto& l : c.layers) {
        adc += l.adc_pj;
        dac += l.dac_pj;
        cell += l.cell_pj;
        mac += l.mac_pj;
        mem += l.mem_pj;
      }
      const char* label = backend == cost::Backend::kDigitalFp32 ? "digital fp32"
                          : backend == cost::Backend::kDigitalInt8
                              ? "digital int8"
                              : "analog CIM";
      table.add_row({name, label, util::Table::num(c.energy_pj * 1e-3, 2),
                     util::Table::num(c.latency_ns * 1e-3, 2),
                     util::Table::num(adc * 1e-3, 2),
                     util::Table::num(dac * 1e-3, 2),
                     util::Table::num(cell * 1e-3, 2),
                     util::Table::num(mac * 1e-3, 2),
                     util::Table::num(mem * 1e-3, 2)});
      char entry[512];
      std::snprintf(entry, sizeof(entry),
                    "%s{\"model\":\"%s\",\"backend\":\"%s\","
                    "\"energy_pj\":%.6g,\"latency_ns\":%.6g,"
                    "\"adc_pj\":%.6g,\"dac_pj\":%.6g,\"cell_pj\":%.6g,"
                    "\"mac_pj\":%.6g,\"mem_pj\":%.6g}",
                    first_model_entry ? "" : ",", name.c_str(), label,
                    c.energy_pj, c.latency_ns, adc, dac, cell, mac, mem);
      json += entry;
      first_model_entry = false;
    }
  }
  table.print();
  table.write_csv("results/cost_model.csv");

  // ADC-bits sweep: the exponential converter cost that motivates the
  // paper's <=7-bit constraint (Sec. I: "energy and area constraints of
  // high-resolution A/D converters").
  std::printf("\nADC/DAC resolution sweep (opt-6.7b-sim, analog):\n");
  util::Table sweep({"bits", "energy (nJ)", "adc share (%)",
                     "vs digital int8 (x)"});
  auto m = model::get_or_train("opt-6.7b-sim", /*verbose=*/false);
  const auto dig = cost::model_linear_cost(*m, tokens,
                                           cost::Backend::kDigitalInt8, hw, dev);
  json += "],\"bits_sweep\":[";
  bool first_sweep_entry = true;
  for (const int bits : {5, 6, 7, 8, 9, 10, 11, 12}) {
    cim::TileConfig cfg = hw;
    cfg.dac_bits = bits;
    cfg.adc_bits = bits;
    const auto c =
        cost::model_linear_cost(*m, tokens, cost::Backend::kAnalogCim, cfg, dev);
    double adc = 0.0;
    for (const auto& l : c.layers) adc += l.adc_pj;
    sweep.add_row({std::to_string(bits), util::Table::num(c.energy_pj * 1e-3, 2),
                   util::Table::num(100.0 * adc / c.energy_pj, 1),
                   util::Table::num(dig.energy_pj / c.energy_pj, 2)});
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s{\"bits\":%d,\"energy_pj\":%.6g,\"adc_share\":%.6g,"
                  "\"vs_int8\":%.6g}",
                  first_sweep_entry ? "" : ",", bits, c.energy_pj,
                  adc / c.energy_pj, dig.energy_pj / c.energy_pj);
    json += entry;
    first_sweep_entry = false;
  }
  json += "]}";
  sweep.print();
  sweep.write_csv("results/cost_model_bits.csv");
  if (!out_path.empty()) {
    if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
      std::printf("\nwrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "WARNING: cannot write %s\n", out_path.c_str());
    }
  }
  std::printf("\nshape check: ADC energy doubles per bit and dominates "
              "beyond ~8-9 bits,\neroding the analog advantage — which is "
              "why low-resolution converters (and\nhence NORA-style accuracy "
              "rescue) matter.\n");
  return 0;
}
