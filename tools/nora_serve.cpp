// Standalone HTTP serving daemon for the analog-deployed model zoo.
//
// Binds 127.0.0.1 and serves the continuous-batching scheduler over the
// fault-tolerant HTTP/1.1 front end:
//
//   POST /v1/completions   {"prompt":[ids...], "max_new_tokens":N,
//                           "stream":true|false, "stream_seed":S,
//                           "deadline_steps":D}
//     stream:true  -> chunked response, one JSON object per token
//     stream:false -> single JSON body with the full token list
//   GET /metrics           {"serve":{...},"net":{...}}
//   GET /healthz           200 ok / 503 draining
//
// SIGTERM/SIGINT drain gracefully: the listener closes, new work gets
// 503 + Retry-After, in-flight streams finish (bounded by
// --drain-timeout), final metrics print, exit 0. A second signal
// abandons the drain (exit 1).
//
//   ./nora_serve [--model=tiny] [--port=8080] [--batch=8]
//                [--kv-budget=256] [--max-conns=1024] [--tokens=16]
//                [--drain-timeout=30000] [--json]
//
// --model=tiny serves a compact untrained transformer (instant start:
// benches, CI, smoke tests). Any zoo name (e.g. opt-1.3b-sim) trains or
// loads the real thing first.
#include <cstdio>
#include <string>

#include "cim/tile_config.hpp"
#include "core/nora.hpp"
#include "eval/evaluator.hpp"
#include "model/zoo.hpp"
#include "net/server.hpp"
#include "net/signals.hpp"
#include "nn/transformer.hpp"
#include "serve/scheduler.hpp"
#include "util/cli.hpp"

using namespace nora;

namespace {

nn::TransformerLM make_tiny() {
  nn::TransformerConfig arch;
  arch.vocab_size = 30;
  arch.d_model = 24;
  arch.n_layers = 2;
  arch.n_heads = 3;
  arch.d_ff = 48;
  arch.max_seq = 64;
  arch.seed = 77;
  nn::TransformerLM model(arch);
  cim::TileConfig tiles = cim::TileConfig::paper_table2();
  tiles.tile_rows = 16;
  tiles.tile_cols = 12;
  tiles.in_noise = 0.02f;
  tiles.abft_checksum = true;
  tiles.n_threads = 1;
  std::uint64_t seed = 900;
  for (auto* lin : model.linear_layers()) {
    lin->to_analog(tiles, {}, seed++);
  }
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string name = cli.get("model", "tiny");
  const int port = static_cast<int>(cli.get_int("port", 8080));
  const int batch = static_cast<int>(cli.get_int("batch", 8));
  const std::int64_t kv_budget = cli.get_int("kv-budget", 256);
  const int max_conns = static_cast<int>(cli.get_int("max-conns", 1024));
  const int tokens = static_cast<int>(cli.get_int("tokens", 16));
  const std::int64_t drain_ms = cli.get_int("drain-timeout", 30000);
  const bool json = cli.get_flag("json");
  cli.check_unknown();

  serve::SchedulerConfig scfg;
  scfg.max_batch = batch;
  scfg.kv_budget_tokens = kv_budget;
  scfg.record_events = true;
  // Pool pressure must reject (-> 503 + Retry-After) rather than block
  // the queue head: an HTTP client can retry, a stuck stream cannot.
  scfg.reject_on_pool_full = true;

  net::ServerConfig ncfg;
  ncfg.port = port;
  ncfg.max_connections = max_conns;
  ncfg.default_max_new_tokens = tokens;
  ncfg.drain_timeout_ms = drain_ms;

  net::install_signal_handlers();

  int rc;
  std::string final_metrics;
  if (name == "tiny") {
    nn::TransformerLM model = make_tiny();
    serve::Scheduler sched(model, scfg);
    net::HttpServer server(sched, ncfg);
    server.listen();
    std::printf("nora_serve: model=tiny vocab=%lld listening on "
                "127.0.0.1:%d (batch %d, kv budget %lld)\n",
                static_cast<long long>(model.config().vocab_size),
                server.port(), batch, static_cast<long long>(kv_budget));
    std::fflush(stdout);
    rc = server.run();
    final_metrics = server.metrics_json();
  } else {
    const model::ModelSpec spec = model::spec_by_name(name);
    const eval::SynthLambada task(spec.task);
    auto model = model::get_or_train(spec);
    core::DeployOptions opts;
    opts.tile = cim::TileConfig::paper_table2();
    opts.nora.enabled = true;
    core::deploy_analog(*model, task, opts);
    serve::Scheduler sched(*model, scfg);
    net::HttpServer server(sched, ncfg);
    server.listen();
    std::printf("nora_serve: model=%s listening on 127.0.0.1:%d "
                "(batch %d, kv budget %lld)\n",
                name.c_str(), server.port(), batch,
                static_cast<long long>(kv_budget));
    std::fflush(stdout);
    rc = server.run();
    final_metrics = server.metrics_json();
  }

  std::printf("%s after %s\n", rc == 0 ? "drained" : "drain abandoned",
              net::shutdown_requested() ? "signal" : "shutdown");
  if (json) std::printf("%s\n", final_metrics.c_str());
  return rc;
}
