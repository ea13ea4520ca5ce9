// Shared pieces of nora_bench: workload definitions, the observations each
// workload runner records, and the helpers that turn them into metrics.
//
// The benchmark measures the libraries only from outside: it times its own
// calls into their public entry points and reads their public counters
// (serve::Metrics, net::NetMetrics, serve::AuditSnapshot).
#pragma once

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/transformer.hpp"
#include "serve/scheduler.hpp"
#include "shard/chip_set.hpp"
#include "timing/hw_model.hpp"
#include "util/rng.hpp"

namespace nora::bench {

/// Steady-clock seconds (one origin for every timestamp in a run).
double now_s();

/// Allocations counted by the benchmark's own operator new (all threads).
std::int64_t alloc_count();

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// FNV-1a over (request index, tokens): one run's output digest.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
std::uint64_t fnv1a(std::uint64_t h, std::int64_t index,
                    std::span<const int> tokens);
std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Workloads

/// One generated request. Request i of a workload is a pure function of
/// (workload, seed, i), so any prefix of the list is reproducible alone.
struct Request {
  std::vector<int> prompt;
  int max_new_tokens = 0;
  /// Noise stream; 0 lets the HTTP server fingerprint the prompt head.
  std::uint64_t stream_seed = 0;
};

struct Workload {
  std::string name;
  bool http = false;
  bool tiny_model = false;       // nora_serve --model=tiny, else bench model
  int pool_width = 1;            // global ThreadPool width (caller included)
  int clients = 8;               // closed-loop clients / HTTP connections
  /// Closed loop: client c sends its first request at busy step
  /// c * stagger_steps, so long requests do not stay in phase.
  int stagger_steps = 0;
  bool tensor_parallel = false;  // 4-chip TP plan + pipelined sim replay
  double warmup_s = 0.0;
  double rate_rps = 0.0;         // HTTP open-loop arrival rate
  std::int64_t kv_budget = 0;    // KV pool tokens; 0 = scheduler default
  /// Requests [0, checked) form the output digest and (HTTP) the offline
  /// cross-check.
  int checked = 16;
  /// Closed-loop requests behind the sim-clock metrics, counted after the
  /// first wave (whose requests all start together).
  int sim_requests = 64;
  std::function<Request(std::uint64_t seed, std::int64_t index)> make;
};

const std::vector<Workload>& workloads();
const Workload& workload_by_name(const std::string& name);

/// The stream net::HttpServer derives for a prompt when the request names
/// none (FNV-1a of the first 16 prompt tokens, top bit set). The HTTP
/// cross-check replays requests offline on exactly these streams.
std::uint64_t fingerprint_stream(std::span<const int> prompt);

/// A deployed model plus what its set-up cost.
struct Deployment {
  std::unique_ptr<nn::TransformerLM> model;
  std::unique_ptr<shard::ChipSet> chips;  // tensor-parallel workloads only
  double deploy_s = 0.0;
  double shard_apply_s = 0.0;
};
Deployment deploy(const Workload& w);

/// Scheduler configuration the workload serves with.
serve::SchedulerConfig scheduler_config(const Workload& w, bool timing);

// ---------------------------------------------------------------------------
// Observations

/// In-memory span log, written out as Chrome trace-event JSON at exit.
struct Span {
  std::string name;
  const char* cat = "";
  int tid = 0;
  double t0 = 0.0, t1 = 0.0;
  std::int64_t id = -1;  // request index, -1 for none
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  /// Spans are kept only while recording (see trace_slice).
  void set_active(bool a) { active_ = a; }
  void add(std::string name, const char* cat, int tid, double t0, double t1,
           std::int64_t id = -1) {
    if (on_ && active_) {
      spans_.push_back({std::move(name), cat, tid, t0, t1, id});
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  bool active_ = true;
  std::vector<Span> spans_;
};

/// A traced run records spans in even 1-second slices of its measured
/// window only; the slowdown of those slices against the odd ones is
/// trace_overhead_frac.
inline bool trace_slice(double t, double t0) {
  return static_cast<std::int64_t>(t - t0) % 2 == 0;
}

/// What happened to one request (absolute now_s() stamps).
struct Outcome {
  bool done = false;   // reached a terminal state
  bool ok = false;     // finished with every requested token
  std::vector<int> tokens;
  double due = 0.0, sent = 0.0, first = 0.0, last = 0.0;
  // Simulated-hardware stamps (closed loop with timing only).
  std::int64_t sim_submit_ps = -1, sim_first_ps = -1, sim_finish_ps = -1;
};

/// Scheduler counters at one instant (subtracted across a window).
struct Counters {
  double t = 0.0;
  std::int64_t busy_steps = 0, admitted = 0, prompt_tokens = 0,
               prefix_hit_tokens = 0;
  double occupancy_sum = 0.0, queue_wait_steps_sum = 0.0, wall_s = 0.0,
         sim_time_ps = 0.0;
  static Counters read(const serve::Scheduler& s);
  Counters operator-(const Counters& o) const;
};

/// A closed loop's step-level observations inside its measured window.
struct LoopStats {
  std::vector<double> step_s, submit_s;
  std::int64_t allocs = 0;
  Counters delta;  // scheduler counters over the same window
  // Work (prompt + generated tokens) and time in traced / untraced slices.
  double traced_work = 0, traced_s = 0, plain_work = 0, plain_s = 0;
};

/// Simulated-hardware results of a closed loop (see ClosedLoop).
struct SimStats {
  double ttft_p50_us = 0.0, tpot_p50_us = 0.0, tok_s = 0.0;
};

/// Closed loop: `clients` callers, each submitting its next request as
/// soon as the previous one finishes. Requests are drawn from the list in
/// index order; issuing stops after `warmup_s + window_s` once needed()
/// requests were issued — at that point already when `bounded`. The sim
/// metrics cover requests [clients, clients + sim_requests).
struct ClosedLoop {
  int clients = 1;
  int stagger_steps = 0;  // see Workload::stagger_steps
  double warmup_s = 0.0;
  double window_s = 0.0;
  bool bounded = false;
  std::int64_t checked = 0;
  std::int64_t sim_requests = 0;
  std::int64_t needed() const {
    return std::max(checked, clients + sim_requests);
  }
};
struct ClosedLoopRun {
  std::vector<Request> requests;
  std::vector<Outcome> outcomes;
  double t0 = 0.0, t1 = 0.0;  // measured window (step boundaries)
  LoopStats loop;
  SimStats sim;
};
ClosedLoopRun run_closed_loop(serve::Scheduler& sched, const Workload& w,
                              std::uint64_t seed, const ClosedLoop& cl,
                              Tracer& tracer);

/// Mean busy step of a run, replayed layer by layer.
struct StepShape {
  std::int64_t decode_rows = 0;
  std::int64_t decode_ctx = 0;     // cached positions behind each decode row
  std::int64_t prefill_segs = 0;
  std::int64_t prefill_rows = 0;   // per prefill segment
  std::int64_t prefill_base = 0;   // leased prefix rows per prefill segment
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Per-layer results of the layer replay (nn.*, cim.*, timing.*); the
/// step's simulated duration goes to `extra`.
std::vector<Metric> replay_layers(nn::TransformerLM& model,
                                  const StepShape& shape, bool pipelined,
                                  double budget_s, Tracer& tracer,
                                  std::vector<Metric>& extra);

/// Everything one workload run produced.
struct RunData {
  std::vector<double> setup_s, deploy_s;
  double shard_apply_s = -1.0;
  std::vector<Request> requests;
  std::vector<Outcome> outcomes;
  double t0 = 0.0, t1 = 0.0;       // measured window
  Counters window;                 // serving counters over the window
  double kv_high_water_frac = 0.0;
  LoopStats loop;                  // closed-loop steps (HTTP: the sim replay)
  SimStats sim;
  StepShape shape;
  std::vector<Metric> layers;      // replay results (traced runs)
  std::vector<Metric> extra;       // reported, not gated
  std::vector<std::string> errors;
  std::uint64_t digest = kFnvBasis;
  std::uint64_t canary = kFnvBasis;
  double trace_overhead_frac = 0.0;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  /// HTTP arrival rate override (0 = the workload's). A rate far above
  /// capacity keeps all connections busy: that run measures capacity.
  double rate_rps = 0.0;
};

RunData run_offline(const Workload& w, const RunOptions& opt, Tracer& tracer);
RunData run_http(const Workload& w, const RunOptions& opt, Tracer& tracer);

// Shared by both workload runners.

/// Set-up is timed repeatedly and its median reported, so one slow start
/// does not decide setup_s. Runners call this twice, before and after the
/// workload, because host speed drifts within a run. Each call replaces
/// the live set-up (`teardown`, then `build`, which returns its deploy
/// time) at least 3 times and for up to half a second (the tiny model sets
/// up in under 1 ms). Freed heap goes back to the OS in between, so peak
/// RSS holds one set-up, as in a process that starts once.
template <class Teardown, class Build>
void time_setups(RunData& run, bool smoke, Teardown&& teardown,
                 Build&& build) {
  double total = 0.0;
  for (int k = 0; k < (smoke ? 1 : 3) || (!smoke && k < 25 && total < 0.5);
       ++k) {
    teardown();
    ::malloc_trim(0);
    const double t0 = now_s();
    run.deploy_s.push_back(build());
    run.setup_s.push_back(now_s() - t0);
    total += run.setup_s.back();
  }
}

/// Serve each request alone on a fresh scheduler (no batch-mates, no
/// prefix cache): the reference every batched or cached result must match.
std::vector<std::vector<int>> run_alone(nn::TransformerLM& model,
                                        const Workload& w,
                                        const std::vector<Request>& reqs);
/// Fixed, seed-independent requests whose digest is pinned per workload.
std::vector<Request> canary_requests(const Workload& w);
/// The last two checked requests, served alone, must reproduce the tokens
/// the run gave them (batching and prefix-cache invariance); also computes
/// the canary digest.
void check_alone(nn::TransformerLM& model, const Workload& w, RunData& run);
/// Idle-drain audit (slabs, prefix leases, terminal states).
void audit_idle(const serve::Scheduler& sched, std::vector<std::string>& errors);
/// Mean step of the window, from the serving counters.
StepShape mean_step(const RunData& run);
int count_open_fds();
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Reporting

std::vector<Metric> end_to_end_metrics(const RunData& run);
std::vector<Metric> per_layer_metrics(const RunData& run);
/// Reported but not gated: p99 tails, sample counts, workload-specific
/// layer counters.
std::vector<Metric> extra_metrics(const RunData& run);
/// Full precision; non-finite values (never expected) render as 0.
std::string json_number(double v);
std::string metrics_json(const std::vector<Metric>& ms);
std::string chrome_trace_json(const std::vector<Span>& spans, double origin);

}  // namespace nora::bench
