// Deterministic chaos soak of the degraded-mode serving stack.
//
// A compact analog transformer is served for thousands of scheduler
// steps while a seeded ChaosEngine injects device upsets, permanent
// wear, ADC-saturation storms, background traffic, bursts and racing
// cancels, with the integrity monitor opening maintenance windows and
// the retry policy re-queueing transient failures. The serve::Auditor
// checks the conservation invariants after EVERY step.
//
// Acceptance criteria (any miss exits nonzero):
//   * zero Auditor violations across the whole soak + idle drain;
//   * zero leaked KV slabs (lifetime acquires == releases, no live
//     leases, and the idle pool holds only resident prefix tokens);
//   * every submitted request ends in exactly one terminal state;
//   * >= 99% of non-rejected requests eventually finish;
//   * the first 500 steps replay bit-identically under the same seed;
//   * with chaos disabled (--no-chaos) the serve output must be
//     bit-identical between sequential and continuously-batched serving
//     — the golden-stream determinism gate.
//
// With --net the soak runs through the HTTP front end instead of
// direct submit(): a NetChaosEngine population of simulated clients
// (streamers, slow-loris readers, stalled writers, mid-stream
// disconnects, malformed senders) drives an HttpServer over
// deterministic sim pipes on a virtual clock, while physical chaos
// keeps hitting the analog substrate underneath. Same replay and
// conservation gates, now covering the connection lifecycle.
//
// SIGINT/SIGTERM interrupt the soak gracefully: injection stops, the
// backlog drains, final metrics print, exit 0. A second signal skips
// the drain.
//
//   ./chaos_soak [--steps=10000] [--seed=2300] [--smoke] [--no-chaos]
//                [--net]
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/chaos_engine.hpp"
#include "chaos/net_chaos.hpp"
#include "cim/tile_config.hpp"
#include "net/server.hpp"
#include "net/signals.hpp"
#include "nn/transformer.hpp"
#include "runtime/integrity_monitor.hpp"
#include "serve/auditor.hpp"
#include "serve/scheduler.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

using namespace nora;

namespace {

nn::TransformerConfig soak_arch() {
  nn::TransformerConfig cfg;
  cfg.vocab_size = 30;
  cfg.d_model = 24;
  cfg.n_layers = 2;
  cfg.n_heads = 3;
  cfg.d_ff = 48;
  cfg.max_seq = 32;
  cfg.seed = 77;
  return cfg;
}

cim::TileConfig soak_tiles() {
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 16;
  cfg.tile_cols = 12;
  cfg.in_noise = 0.02f;
  cfg.abft_checksum = true;
  cfg.n_threads = 1;
  return cfg;
}

nn::TransformerLM make_model() {
  nn::TransformerLM model(soak_arch());
  std::uint64_t seed = 900;
  for (auto* lin : model.linear_layers()) {
    lin->to_analog(soak_tiles(), {}, seed++);
  }
  return model;
}

serve::SchedulerConfig soak_sched_cfg(runtime::IntegrityMonitor* monitor) {
  serve::SchedulerConfig cfg;
  cfg.max_batch = 8;
  cfg.kv_budget_tokens = 128;
  cfg.seed = 913;
  cfg.monitor = monitor;
  cfg.inspect_every = 8;
  cfg.step_dt_s = 0.5f;
  cfg.maintenance_window_steps = 3;
  // Pool pressure takes the retry/backoff path, not head-of-line
  // blocking — the soak must exercise requeues, not just queueing.
  cfg.reject_on_pool_full = true;
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_base_steps = 1;
  cfg.retry.backoff_cap_steps = 16;
  cfg.retry.jitter_steps = 2;
  return cfg;
}

chaos::ChaosConfig soak_chaos_cfg(std::uint64_t seed) {
  chaos::ChaosConfig cfg;
  cfg.seed = seed;
  cfg.upset_rate = 0.3;
  cfg.wear_rate = 0.02;
  cfg.adc_storm_rate = 0.01;
  cfg.adc_storm_size = 16;
  cfg.submit_rate = 0.5;
  cfg.burst_rate = 0.03;
  cfg.burst_size = 4;
  // Low cancel/deadline pressure: injected aborts are part of the soak,
  // but the >= 99%-finished criterion must stay reachable.
  cfg.cancel_rate = 0.02;
  cfg.deadline_prob = 0.02;
  cfg.deadline_min = 48;
  cfg.deadline_max = 128;
  return cfg;
}

struct SoakOutcome {
  chaos::ChaosStats stats;
  serve::AuditSnapshot snap;
  std::vector<std::string> violations;
  std::int64_t soak_steps = 0;
  std::int64_t drain_steps = 0;
  bool drained = true;
  bool interrupted = false;  // signal arrived; soak cut short + drained
};

SoakOutcome run_soak(std::uint64_t seed, std::int64_t steps) {
  nn::TransformerLM model = make_model();
  runtime::IntegrityMonitor monitor(model, /*deploy_seed=*/5050, {});
  serve::Scheduler sched(model, soak_sched_cfg(&monitor));
  chaos::ChaosEngine engine(sched, model, soak_chaos_cfg(seed));
  serve::Auditor auditor(sched);
  SoakOutcome out;
  for (std::int64_t s = 0; s < steps; ++s) {
    if (net::shutdown_requested()) {
      out.interrupted = true;  // stop injecting, fall through to drain
      break;
    }
    engine.tick(s);
    sched.step();
    auditor.check();
    ++out.soak_steps;
  }
  // Idle drain: no more injections; the retry budgets and deadlines
  // bound how long the backlog can live.
  const std::int64_t drain_cap = steps * 4 + 10000;
  while (sched.step()) {
    auditor.check();
    if (net::shutdown_signal_count() >= 2) {
      out.interrupted = true;  // operator insisted: skip the drain
      break;
    }
    if (++out.drain_steps > drain_cap) {
      out.drained = false;  // livelock/deadlock: a hard failure
      break;
    }
  }
  auditor.check_idle();
  out.stats = engine.stats();
  out.snap = sched.audit_snapshot();
  out.violations = auditor.violations();
  return out;
}

// ---------------------------------------------------------------------
// Network chaos soak (--net): the same stack fronted by the HTTP server
// over deterministic sim transports and a virtual clock.
// ---------------------------------------------------------------------

constexpr std::int64_t kNetStepMs = 100;  // virtual ms per soak step

net::ServerConfig net_soak_server_cfg() {
  net::ServerConfig cfg;
  cfg.max_connections = 32;           // bursts of clients can hit the cap
  cfg.max_write_buffer_bytes = 512;   // stalled streams overflow quickly
  cfg.header_timeout_ms = 1500;       // 15 steps: kills the 1 B/step loris
  cfg.idle_timeout_ms = 5000;
  cfg.write_stall_timeout_ms = 1000;  // 10 steps of zero write progress
  cfg.drain_timeout_ms = 3000;
  cfg.step_scheduler = false;         // the soak loop owns step()
  return cfg;
}

chaos::NetChaosConfig net_soak_chaos_cfg(std::uint64_t seed) {
  chaos::NetChaosConfig cfg;
  cfg.seed = seed;
  cfg.step_ms = kNetStepMs;
  cfg.connect_rate = 0.15;
  cfg.burst_rate = 0.02;
  cfg.burst_size = 6;
  cfg.disconnect_rate = 0.05;
  cfg.loris_rate = 0.02;
  cfg.stall_rate = 0.02;
  cfg.malformed_rate = 0.02;
  cfg.pipe_capacity = 128;  // small pipes make backpressure real
  cfg.max_new_min = 4;      // long enough streams to disconnect into
  cfg.max_new_max = 12;
  return cfg;
}

struct NetSoakOutcome {
  chaos::ChaosStats phys;
  chaos::NetChaosStats netstats;
  net::NetMetrics netm;
  serve::AuditSnapshot snap;
  std::vector<std::string> violations;
  std::int64_t soak_steps = 0;
  std::int64_t drain_steps = 0;
  bool drained = true;
  bool server_drained = false;  // request_shutdown() reached drained()
  bool interrupted = false;
};

NetSoakOutcome run_net_soak(std::uint64_t seed, std::int64_t steps) {
  nn::TransformerLM model = make_model();
  runtime::IntegrityMonitor monitor(model, /*deploy_seed=*/5050, {});
  serve::SchedulerConfig scfg = soak_sched_cfg(&monitor);
  scfg.record_events = true;  // the server streams from drain_events()
  serve::Scheduler sched(model, scfg);

  // Physical chaos keeps hammering the substrate; direct traffic is
  // dialed down — the HTTP clients are the load now.
  chaos::ChaosConfig ccfg = soak_chaos_cfg(seed);
  ccfg.submit_rate = 0.1;
  ccfg.burst_rate = 0.0;
  ccfg.cancel_rate = 0.01;
  chaos::ChaosEngine engine(sched, model, ccfg);

  net::HttpServer server(sched, net_soak_server_cfg());
  chaos::NetChaosEngine net_engine(server, net_soak_chaos_cfg(seed),
                                   soak_arch().vocab_size);
  serve::Auditor auditor(sched);
  NetSoakOutcome out;

  for (std::int64_t s = 0; s < steps; ++s) {
    if (net::shutdown_requested()) {
      out.interrupted = true;
      break;
    }
    const std::int64_t now = s * kNetStepMs;
    engine.tick(s);
    net_engine.tick(s);
    server.pump(now);  // ingest requests, run timeouts
    sched.step();
    server.pump(now);  // route this step's tokens into the pipes
    auditor.check();
    ++out.soak_steps;
  }

  // Drain: no new spawns (rates only fire through tick's draws against
  // future steps, but the client population still needs driving until
  // every connection reaches a terminal fate).
  const std::int64_t drain_cap = steps * 4 + 10000;
  std::int64_t s = steps;
  while (sched.in_flight() > 0 || !net_engine.all_done() ||
         server.connections() > 0) {
    if (net::shutdown_signal_count() >= 2) {
      out.interrupted = true;
      break;
    }
    const std::int64_t now = s * kNetStepMs;
    net_engine.tick(s);  // all rates re-drawn per step; drives clients
    server.pump(now);
    sched.step();
    server.pump(now);
    auditor.check();
    ++s;
    if (++out.drain_steps > drain_cap) {
      out.drained = false;
      break;
    }
  }

  // Graceful-drain gate: with everything idle this must complete
  // immediately; with stragglers it must finish inside drain_timeout.
  server.request_shutdown(s * kNetStepMs);
  for (std::int64_t d = 0; d <= 64 && !server.drained(); ++d) {
    server.pump((s + d) * kNetStepMs);
    sched.step();
  }
  out.server_drained = server.drained();

  auditor.check_idle();
  out.phys = engine.stats();
  out.netstats = net_engine.stats();
  out.netm = server.net_metrics();
  out.snap = sched.audit_snapshot();
  out.violations = auditor.violations();
  return out;
}

int run_net_mode(std::uint64_t seed, std::int64_t steps) {
  std::printf("network chaos soak: %lld steps, seed %llu\n",
              static_cast<long long>(steps),
              static_cast<unsigned long long>(seed));

  // Replay gate: same seed, same virtual clock, same sim pipes — the
  // injection schedule AND every connection outcome must reproduce.
  {
    const std::int64_t replay_steps = std::min<std::int64_t>(steps, 500);
    const NetSoakOutcome a = run_net_soak(seed, replay_steps);
    const NetSoakOutcome b = run_net_soak(seed, replay_steps);
    if (a.interrupted || b.interrupted) return 0;
    const bool replay_ok =
        a.netstats.total_events() == b.netstats.total_events() &&
        a.netstats.streams_completed == b.netstats.streams_completed &&
        a.netstats.tokens_received == b.netstats.tokens_received &&
        a.netstats.bytes_received == b.netstats.bytes_received &&
        a.netm.accepted == b.netm.accepted &&
        a.netm.header_timeouts == b.netm.header_timeouts &&
        a.netm.disconnect_cancels == b.netm.disconnect_cancels &&
        a.snap.states == b.snap.states &&
        a.snap.metrics.generated_tokens == b.snap.metrics.generated_tokens;
    std::printf("replay gate (%lld steps twice, same seed): %s\n",
                static_cast<long long>(replay_steps),
                replay_ok ? "PASS" : "FAIL");
    if (!replay_ok) return 1;
  }

  const NetSoakOutcome out = run_net_soak(seed, steps);
  const serve::Metrics& m = out.snap.metrics;

  std::int64_t terminal = 0;
  for (const auto st : out.snap.states) {
    if (st != serve::RequestState::kQueued &&
        st != serve::RequestState::kRunning) {
      ++terminal;
    }
  }

  std::printf("\ninjected: %lld connects (%lld bursts), %lld disconnects, "
              "%lld loris, %lld stalls, %lld malformed; physical: %lld "
              "upsets, %lld wears, %lld storms\n",
              static_cast<long long>(out.netstats.connects),
              static_cast<long long>(out.netstats.bursts),
              static_cast<long long>(out.netstats.disconnects),
              static_cast<long long>(out.netstats.loris_spawned),
              static_cast<long long>(out.netstats.stalls_spawned),
              static_cast<long long>(out.netstats.malformed_sent),
              static_cast<long long>(out.phys.upsets),
              static_cast<long long>(out.phys.wears),
              static_cast<long long>(out.phys.storms));
  std::printf("client view: %lld 2xx, %lld 4xx, %lld 5xx, %lld streams "
              "completed, %lld tokens received\n",
              static_cast<long long>(out.netstats.responses_2xx),
              static_cast<long long>(out.netstats.responses_4xx),
              static_cast<long long>(out.netstats.responses_5xx),
              static_cast<long long>(out.netstats.streams_completed),
              static_cast<long long>(out.netstats.tokens_received));
  std::printf("server view: %s\n", out.netm.to_json(0).c_str());
  std::printf("%s\n", m.to_string().c_str());

  if (out.interrupted) {
    std::printf("interrupted by signal: drained, final metrics above\n");
    return 0;
  }

  bool ok = true;
  auto criterion = [&ok](const char* name, bool pass) {
    std::printf("criterion %-38s %s\n", name, pass ? "PASS" : "FAIL");
    ok = ok && pass;
  };
  criterion("drained to idle (no livelock):", out.drained);
  criterion("server drained gracefully:", out.server_drained);
  criterion("zero auditor violations:", out.violations.empty());
  for (std::size_t i = 0; i < out.violations.size() && i < 10; ++i) {
    std::printf("  VIOLATION: %s\n", out.violations[i].c_str());
  }
  criterion("zero leaked KV slabs:",
            out.snap.pool_live == 0 &&
                out.snap.pool_used == out.snap.pool_prefix_tokens &&
                out.snap.pool_acquires == out.snap.pool_releases);
  criterion("every request terminal:",
            terminal == static_cast<std::int64_t>(out.snap.states.size()));
  criterion("streams actually completed:",
            out.netstats.streams_completed > 0 &&
                out.netstats.responses_2xx > 0);
  criterion("loris died to header timeout:",
            out.netstats.loris_spawned > 0 && out.netm.header_timeouts > 0);
  criterion("stalled writers reaped + cancelled:",
            out.netstats.stall_reaped > 0 &&
                out.netm.write_stall_cancels + out.netm.overflow_closes > 0);
  criterion("disconnects cancelled scheduler work:",
            out.netstats.disconnects > 0 && out.netm.disconnect_cancels > 0);
  criterion("malformed requests rejected:",
            out.netstats.malformed_sent > 0 && out.netm.malformed > 0);
  criterion("chaos actually fired:",
            out.netstats.total_events() > 0 && out.phys.upsets > 0);
  return ok ? 0 : 1;
}

/// Chaos-disabled gate: a fixed request set served one-at-a-time and
/// continuously batched must produce bit-identical tokens (the serving
/// determinism contract the golden-stream tests pin down).
bool run_golden_gate() {
  auto run = [](int max_batch) {
    nn::TransformerLM model = make_model();
    serve::SchedulerConfig cfg;
    cfg.max_batch = max_batch;
    serve::Scheduler sched(model, cfg);
    chaos::ChaosConfig ccfg;  // all rates zero: must be a strict no-op
    chaos::ChaosEngine engine(sched, model, ccfg);
    std::vector<std::int64_t> ids;
    for (int i = 0; i < 8; ++i) {
      serve::RequestParams p;
      p.prompt = {3 + i % 5, 1, 4, 1, 5};
      p.max_new_tokens = 8;
      p.stream_seed = 700 + static_cast<std::uint64_t>(i);
      ids.push_back(sched.submit(std::move(p)));
    }
    std::int64_t s = 0;
    bool busy = true;
    while (busy) {
      engine.tick(s++);
      busy = sched.step();
    }
    std::vector<std::vector<int>> tokens;
    for (const auto id : ids) tokens.push_back(sched.request(id).tokens);
    return tokens;
  };
  const auto seq = run(1);
  const auto bat = run(8);
  return seq == bat;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.get_flag("smoke");
  const bool no_chaos = cli.get_flag("no-chaos");
  const bool net = cli.get_flag("net");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 2300));
  const std::int64_t steps = cli.get_int("steps", smoke ? 1500 : 10000);
  cli.check_unknown();
  util::ThreadPool::global().resize(1);
  net::install_signal_handlers();

  if (net) return run_net_mode(seed, steps);

  if (no_chaos) {
    const bool ok = run_golden_gate();
    std::printf("chaos disabled: sequential vs batched serve output "
                "bit-identical: %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }

  std::printf("chaos soak: %lld steps, seed %llu%s\n",
              static_cast<long long>(steps),
              static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");

  // Replay gate first (cheap): the same seed must reproduce the same
  // injection schedule and the same per-request outcomes.
  {
    const std::int64_t replay_steps = std::min<std::int64_t>(steps, 500);
    const SoakOutcome a = run_soak(seed, replay_steps);
    const SoakOutcome b = run_soak(seed, replay_steps);
    if (a.interrupted || b.interrupted) {
      std::printf("interrupted by signal during replay gate: drained\n");
      return 0;
    }
    const bool replay_ok =
        a.stats.total_events() == b.stats.total_events() &&
        a.stats.upsets == b.stats.upsets && a.stats.wears == b.stats.wears &&
        a.stats.storms == b.stats.storms &&
        a.stats.cancels_accepted == b.stats.cancels_accepted &&
        a.snap.states == b.snap.states &&
        a.snap.metrics.generated_tokens == b.snap.metrics.generated_tokens;
    std::printf("replay gate (%lld steps twice, same seed): %s\n",
                static_cast<long long>(replay_steps),
                replay_ok ? "PASS" : "FAIL");
    if (!replay_ok) return 1;
  }

  const SoakOutcome out = run_soak(seed, steps);
  const serve::Metrics& m = out.snap.metrics;

  std::int64_t terminal = 0;
  for (const auto st : out.snap.states) {
    if (st != serve::RequestState::kQueued &&
        st != serve::RequestState::kRunning) {
      ++terminal;
    }
  }
  // Finished fraction over requests the system was actually asked to
  // complete: harness-injected cancels are deliberate aborts, so they
  // leave the denominator; expiries stay in it (a deadline miss under
  // load is the scheduler's failure to deliver, not an injected abort).
  const std::int64_t non_rejected = m.submitted - m.rejected - m.cancelled;
  const double finished_frac =
      non_rejected > 0
          ? static_cast<double>(m.finished) / static_cast<double>(non_rejected)
          : 1.0;

  std::printf("\ninjected: %lld upsets, %lld wears, %lld storms, %lld "
              "submits (%lld bursts), %lld/%lld cancels accepted, %lld "
              "skipped\n",
              static_cast<long long>(out.stats.upsets),
              static_cast<long long>(out.stats.wears),
              static_cast<long long>(out.stats.storms),
              static_cast<long long>(out.stats.submits),
              static_cast<long long>(out.stats.bursts),
              static_cast<long long>(out.stats.cancels_accepted),
              static_cast<long long>(out.stats.cancels_attempted),
              static_cast<long long>(out.stats.skipped));
  std::printf("%s\n", m.to_string().c_str());
  std::printf("auditor: %lld checks, %zu violations\n",
              static_cast<long long>(out.soak_steps + out.drain_steps + 1),
              out.violations.size());
  for (std::size_t i = 0; i < out.violations.size() && i < 10; ++i) {
    std::printf("  VIOLATION: %s\n", out.violations[i].c_str());
  }

  if (out.interrupted) {
    std::printf("interrupted by signal: drained, final metrics above\n");
    return 0;
  }

  // --- acceptance criteria -------------------------------------------
  bool ok = true;
  auto criterion = [&ok](const char* name, bool pass) {
    std::printf("criterion %-38s %s\n", name, pass ? "PASS" : "FAIL");
    ok = ok && pass;
  };
  criterion("drained to idle (no livelock):", out.drained);
  criterion("zero auditor violations:", out.violations.empty());
  criterion("zero leaked KV slabs:",
            out.snap.pool_live == 0 &&
                out.snap.pool_used == out.snap.pool_prefix_tokens &&
                out.snap.pool_acquires == out.snap.pool_releases);
  criterion("every request terminal:",
            terminal == static_cast<std::int64_t>(out.snap.states.size()));
  std::printf("  finished %lld / %lld non-rejected non-cancelled (%.2f%%)\n",
              static_cast<long long>(m.finished),
              static_cast<long long>(non_rejected), 100.0 * finished_frac);
  criterion(">= 99% of non-rejected finished:", finished_frac >= 0.99);
  criterion("chaos actually fired:", out.stats.total_events() > 0 &&
                                         out.stats.upsets > 0 &&
                                         out.stats.submits > 0);
  return ok ? 0 : 1;
}
