// Workload table, request generators, model deployment and the helpers
// both workload runners share.
#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"
#include "cim/tile_config.hpp"
#include "core/nora.hpp"
#include "eval/synthlambada.hpp"
#include "serve/auditor.hpp"
#include "shard/apply.hpp"
#include "shard/plan.hpp"
#include "util/thread_pool.hpp"

namespace nora::bench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  return serve::percentile(v, 0.5);
}

std::uint64_t fnv1a(std::uint64_t h, std::int64_t index,
                    std::span<const int> tokens) {
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(index));
  mix(tokens.size());
  for (const int t : tokens) mix(static_cast<std::uint64_t>(t));
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fingerprint_stream(std::span<const int> prompt) {
  std::uint64_t h = kFnvBasis;
  const std::size_t k = std::min<std::size_t>(prompt.size(), 16);
  for (std::size_t i = 0; i < k; ++i) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(prompt[i]));
    h *= 1099511628211ull;
  }
  return h | (1ull << 63);
}

// ---------------------------------------------------------------------------
// Models

namespace {

constexpr int kBenchVocab = 90;  // = SynthLambada's vocabulary
constexpr int kTinyVocab = 30;

/// Per-request generator stream: request i never depends on request i-1.
util::Rng request_rng(std::uint64_t seed, const char* workload,
                      std::int64_t index) {
  return util::Rng(util::derive_stream(util::derive_seed(seed, workload),
                                       static_cast<std::uint64_t>(index)));
}

std::vector<int> random_tokens(util::Rng& rng, std::int64_t n, int vocab) {
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int& t : out) t = static_cast<int>(rng.uniform_index(vocab));
  return out;
}

int uniform_int(util::Rng& rng, int lo, int hi) {  // [lo, hi]
  return lo + static_cast<int>(rng.uniform_index(hi - lo + 1));
}

std::uint64_t own_stream(util::Rng& rng) { return rng.next_u64() | 1; }

Request make_decode_long(std::uint64_t seed, std::int64_t i) {
  util::Rng rng = request_rng(seed, "decode_long", i);
  Request r;
  r.prompt = random_tokens(rng, uniform_int(rng, 6, 10), kBenchVocab);
  r.max_new_tokens = uniform_int(rng, 216, 232);
  r.stream_seed = own_stream(rng);
  return r;
}

Request make_prefill_tp4(std::uint64_t seed, std::int64_t i) {
  util::Rng rng = request_rng(seed, "prefill_tp4", i);
  Request r;
  r.prompt = random_tokens(rng, uniform_int(rng, 216, 232), kBenchVocab);
  // A fixed output length keeps the 8 clients in lockstep waves (one
  // 8-prefill step, then 3 decode steps), so the latency percentiles are
  // not a lottery over how prefills happen to share steps.
  r.max_new_tokens = 4;
  r.stream_seed = own_stream(rng);
  return r;
}

Request make_http_prefix(std::uint64_t seed, std::int64_t i) {
  util::Rng head_rng(util::derive_seed(seed, "http_prefix/head"));
  util::Rng rng = request_rng(seed, "http_prefix", i);
  // 80% continue one shared 96-token head (same fingerprint stream, so the
  // prefix cache can serve it); 20% are cold prompts of the same length:
  // exactly one per block of 5 requests, at a seeded position, so every
  // seed has the same cold share.
  util::Rng block_rng = request_rng(seed, "http_prefix/block", i / 5);
  const bool cold = static_cast<std::int64_t>(block_rng.uniform_index(5)) == i % 5;
  Request r;
  r.prompt = cold ? random_tokens(rng, 96, kBenchVocab)
                  : random_tokens(head_rng, 96, kBenchVocab);
  const std::vector<int> tail =
      random_tokens(rng, uniform_int(rng, 6, 10), kBenchVocab);
  r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
  r.max_new_tokens = 8;
  return r;
}

Request make_http_short(std::uint64_t seed, std::int64_t i) {
  // Unique by construction: the 4 prompt tokens are the base-30 digits of
  // an affine permutation of the request index (30^4 distinct prompts),
  // so no two requests share a fingerprint stream or a prefix.
  constexpr std::uint64_t kSpace = 810000;  // 30^4
  util::Rng perm(util::derive_seed(seed, "http_short/perm"));
  std::uint64_t a = perm.uniform_index(kSpace) | 1;
  while (a % 3 == 0 || a % 5 == 0) a += 2;
  const std::uint64_t b = perm.uniform_index(kSpace);
  std::uint64_t code = (a * static_cast<std::uint64_t>(i) + b) % kSpace;
  util::Rng rng = request_rng(seed, "http_short", i);
  Request r;
  for (int d = 0; d < 4; ++d) {
    r.prompt.push_back(static_cast<int>(code % kTinyVocab));
    code /= kTinyVocab;
  }
  r.max_new_tokens = uniform_int(rng, 14, 18);
  return r;
}

std::unique_ptr<nn::TransformerLM> bench_model() {
  nn::TransformerConfig arch;
  arch.vocab_size = kBenchVocab;
  arch.d_model = 128;
  arch.n_layers = 4;
  arch.n_heads = 4;
  arch.d_ff = 512;
  arch.max_seq = 256;
  arch.seed = 2025;
  return std::make_unique<nn::TransformerLM>(arch);
}

/// nora_serve --model=tiny.
std::unique_ptr<nn::TransformerLM> tiny_model() {
  nn::TransformerConfig arch;
  arch.vocab_size = kTinyVocab;
  arch.d_model = 24;
  arch.n_layers = 2;
  arch.n_heads = 3;
  arch.d_ff = 48;
  arch.max_seq = 64;
  arch.seed = 77;
  return std::make_unique<nn::TransformerLM>(arch);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> t;
    Workload w;
    w.name = "decode_long";
    w.pool_width = 4;
    w.clients = 8;
    // ~224 steps per request / 8 clients: one prefill every 28 steps
    // instead of 8 in one step, then clustered for the whole run.
    w.stagger_steps = 28;
    w.warmup_s = 2.0;
    w.checked = 16;
    w.make = make_decode_long;
    t.push_back(w);

    w = Workload{};
    w.name = "prefill_tp4";
    w.pool_width = 4;
    w.clients = 8;
    w.tensor_parallel = true;
    w.warmup_s = 2.0;
    w.checked = 16;
    w.make = make_prefill_tp4;
    t.push_back(w);

    // HTTP rates: 20% of what the 4-connection client sustains saturated
    // on a 4-core host (50 and 610 req/s). A fixed rate turns a slower host
    // into a higher load; at 60% the connection queue amplified host-speed
    // drift into 4x swings of TTFT p90 between runs of one seed, and 20%
    // stays under 40% load when the host runs at half speed (README.md).
    w = Workload{};
    w.name = "http_prefix";
    w.http = true;
    w.pool_width = 3;  // server loop + 2 workers; the client is the 4th
    w.clients = 4;
    w.warmup_s = 3.0;
    w.rate_rps = 10.0;
    // KV budget: 4 connections x worst request (106-token prompt + 8 new
    // - 1) plus one published 106-token prompt, so a reject is a failure.
    w.kv_budget = 4 * 113 + 106;
    w.checked = 32;
    // 4 + 56 = 60 requests: whole blocks of 5, so the cold share of the
    // sim sample is exactly 20% too.
    w.sim_requests = 56;
    w.make = make_http_prefix;
    t.push_back(w);

    w = Workload{};
    w.name = "http_short";
    w.http = true;
    w.tiny_model = true;
    w.pool_width = 1;
    w.clients = 4;
    w.warmup_s = 2.0;
    w.rate_rps = 120.0;
    w.kv_budget = 4 * (4 + 18 - 1) + 4;
    w.checked = 64;
    w.make = make_http_short;
    t.push_back(w);
    return t;
  }();
  return table;
}

const Workload& workload_by_name(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Deployment deploy(const Workload& w) {
  Deployment d;
  if (w.tiny_model) {
    d.model = tiny_model();
    const double t0 = now_s();
    cim::TileConfig tiles = cim::TileConfig::paper_table2();
    tiles.tile_rows = 16;
    tiles.tile_cols = 12;
    tiles.in_noise = 0.02f;
    tiles.abft_checksum = true;
    tiles.n_threads = 1;
    std::uint64_t seed = 900;
    for (auto* lin : d.model->linear_layers()) lin->to_analog(tiles, {}, seed++);
    d.deploy_s = now_s() - t0;
    return d;
  }
  d.model = bench_model();
  const double t0 = now_s();
  eval::SynthLambadaConfig task_cfg;
  task_cfg.seq_len = 64;
  const eval::SynthLambada task(task_cfg);
  core::DeployOptions opts;
  opts.tile = cim::TileConfig::paper_table2();
  opts.tile.tile_rows = 64;
  opts.tile.tile_cols = 64;
  opts.tile.n_threads = w.pool_width;
  opts.nora.enabled = true;
  core::deploy_analog(*d.model, task, opts);
  d.deploy_s = now_s() - t0;
  if (w.tensor_parallel) {
    const double t1 = now_s();
    d.chips = std::make_unique<shard::ChipSet>(4, 1);
    shard::apply_plan(*d.model, *d.chips,
                      shard::plan_tensor_parallel(
                          static_cast<int>(d.model->config().n_layers), 4));
    d.shard_apply_s = now_s() - t1;
  }
  return d;
}

serve::SchedulerConfig scheduler_config(const Workload& w, bool timing) {
  serve::SchedulerConfig c;
  c.record_events = true;
  // As nora_serve: pool pressure rejects instead of blocking the queue.
  c.reject_on_pool_full = w.http;
  c.kv_budget_tokens = w.kv_budget;
  c.timing.enabled = timing;
  c.shard_replay = timing && w.tensor_parallel;
  return c;
}

// ---------------------------------------------------------------------------
// Shared helpers

Counters Counters::read(const serve::Scheduler& s) {
  const serve::Metrics m = s.metrics();
  Counters c;
  c.t = now_s();
  c.busy_steps = m.busy_steps;
  c.admitted = m.admitted;
  c.prompt_tokens = m.prompt_tokens;
  c.prefix_hit_tokens = m.kv_prefix_hit_tokens;
  c.occupancy_sum = m.occupancy_sum;
  c.queue_wait_steps_sum = m.queue_wait_steps_sum;
  c.wall_s = m.wall_s;
  c.sim_time_ps = static_cast<double>(m.sim_time_ps);
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.t = t - o.t;
  d.busy_steps = busy_steps - o.busy_steps;
  d.admitted = admitted - o.admitted;
  d.prompt_tokens = prompt_tokens - o.prompt_tokens;
  d.prefix_hit_tokens = prefix_hit_tokens - o.prefix_hit_tokens;
  d.occupancy_sum = occupancy_sum - o.occupancy_sum;
  d.queue_wait_steps_sum = queue_wait_steps_sum - o.queue_wait_steps_sum;
  d.wall_s = wall_s - o.wall_s;
  d.sim_time_ps = sim_time_ps - o.sim_time_ps;
  return d;
}

std::vector<std::vector<int>> run_alone(nn::TransformerLM& model,
                                        const Workload& w,
                                        const std::vector<Request>& reqs) {
  std::vector<std::vector<int>> out;
  for (const Request& q : reqs) {
    serve::Scheduler sched(model, scheduler_config(w, false));
    serve::RequestParams p;
    p.prompt = q.prompt;
    p.max_new_tokens = q.max_new_tokens;
    p.stream_seed =
        q.stream_seed != 0 ? q.stream_seed : fingerprint_stream(q.prompt);
    const std::int64_t id = sched.submit(std::move(p));
    sched.run_until_idle();
    out.push_back(sched.request(id).tokens);
  }
  return out;
}

void check_alone(nn::TransformerLM& model, const Workload& w, RunData& run) {
  std::vector<Request> reqs;
  for (int i = w.checked - 2; i < w.checked; ++i) {
    reqs.push_back(run.requests[static_cast<std::size_t>(i)]);
  }
  const auto alone = run_alone(model, w, reqs);
  for (std::size_t k = 0; k < alone.size(); ++k) {
    const std::size_t i = static_cast<std::size_t>(w.checked - 2) + k;
    if (alone[k] != run.outcomes[i].tokens) {
      run.errors.push_back("request " + std::to_string(i) +
                           " served alone differs from its served tokens");
    }
  }
  std::int64_t ci = 0;
  for (const auto& toks : run_alone(model, w, canary_requests(w))) {
    run.canary = fnv1a(run.canary, ci++, toks);
  }
}

std::vector<Request> canary_requests(const Workload& w) {
  std::vector<Request> out(2);
  out[0].prompt = {1, 2, 3, 4, 5, 6, 7, 8};
  out[1].prompt = {8, 7, 6, 5, 4, 3, 2, 1};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].max_new_tokens = 16;
    out[i].stream_seed = util::derive_seed(0xC0FFEE + i, w.name);
  }
  return out;
}

void audit_idle(const serve::Scheduler& sched,
                std::vector<std::string>& errors) {
  serve::Auditor auditor(sched);
  auditor.check_idle();
  for (const std::string& v : auditor.violations()) {
    errors.push_back("idle audit: " + v);
  }
}

StepShape mean_step(const RunData& run) {
  const Counters& c = run.window;
  StepShape s;
  std::vector<double> ctx;
  for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
    const Outcome& o = run.outcomes[i];
    if (o.done && o.due >= run.t0 && o.due < run.t1) {
      ctx.push_back(static_cast<double>(run.requests[i].prompt.size()) +
                    0.5 * static_cast<double>(o.tokens.size()));
    }
  }
  s.decode_ctx = std::max<std::int64_t>(1, std::llround(median(ctx)));
  if (c.busy_steps <= 0 || c.admitted <= 0) {
    s.decode_rows = 1;
    return s;
  }
  const double busy = static_cast<double>(c.busy_steps);
  const double admits = static_cast<double>(c.admitted);
  const double suffix =
      static_cast<double>(c.prompt_tokens - c.prefix_hit_tokens);
  const double prefills_per_step = admits / busy;
  s.decode_rows = std::max<std::int64_t>(
      0, std::llround(c.occupancy_sum / busy - prefills_per_step));
  if (suffix / busy >= 1.0) {
    s.prefill_segs =
        std::max<std::int64_t>(1, std::llround(prefills_per_step));
    s.prefill_rows = std::max<std::int64_t>(1, std::llround(suffix / admits));
    s.prefill_base = std::llround(
        static_cast<double>(c.prefix_hit_tokens) / admits);
  }
  if (s.decode_rows + s.prefill_segs == 0) s.decode_rows = 1;
  return s;
}

int count_open_fds() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n - 3;  // ".", "..", and the dirfd itself
}

double peak_rss_mb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace nora::bench
