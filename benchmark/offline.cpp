// The closed loop over serve::Scheduler, and the offline workloads
// (decode_long, prefill_tp4) built on it.
#include <algorithm>
#include <string>

#include "bench.hpp"
#include "util/thread_pool.hpp"

namespace nora::bench {

ClosedLoopRun run_closed_loop(serve::Scheduler& sched, const Workload& w,
                              std::uint64_t seed, const ClosedLoop& cl,
                              Tracer& tracer) {
  ClosedLoopRun r;
  LoopStats& loop = r.loop;
  const double start = now_s();
  const double w0 = start + cl.warmup_s;
  const double w1 = w0 + cl.window_s;
  bool in_window = false, window_done = false;
  Counters c0;
  std::int64_t first_sid = -1;
  std::vector<std::int64_t> index_of;  // scheduler id - first_sid -> index
  std::vector<int> seen;               // tokens observed per request
  // Per client: the scheduler id in flight, -1 once done issuing, -2
  // before its staggered start.
  std::vector<std::int64_t> client(static_cast<std::size_t>(cl.clients), -2);
  const std::int64_t needed = cl.needed();
  std::int64_t issued = 0, needed_done = 0, steps = 0;

  const auto submit = [&](std::size_t c, double now) {
    if (issued >= needed && (cl.bounded || now >= w1)) {
      client[c] = -1;
      return;
    }
    r.requests.push_back(w.make(seed, issued));
    const Request& q = r.requests.back();
    serve::RequestParams p;
    p.prompt = q.prompt;
    p.max_new_tokens = q.max_new_tokens;
    p.stream_seed =
        q.stream_seed != 0 ? q.stream_seed : fingerprint_stream(q.prompt);
    const double a = now_s();
    const std::int64_t sid = sched.submit(std::move(p));
    const double b = now_s();
    if (in_window) {
      loop.submit_s.push_back(b - a);
      tracer.add("submit", "serve", 1, a, b, issued);
    }
    if (first_sid < 0) first_sid = sid;
    index_of.resize(static_cast<std::size_t>(sid - first_sid + 1), -1);
    index_of[static_cast<std::size_t>(sid - first_sid)] = issued;
    Outcome o;
    o.due = o.sent = a;
    r.outcomes.push_back(std::move(o));
    seen.push_back(0);
    client[c] = sid;
    ++issued;
  };

  while (std::any_of(client.begin(), client.end(),
                     [](std::int64_t s) { return s != -1; })) {
    const double a = now_s();
    if (!in_window && !window_done && a >= w0) {
      in_window = true;
      r.t0 = a;
      c0 = Counters::read(sched);
    } else if (in_window && a >= w1) {
      in_window = false;
      window_done = true;
      r.t1 = a;
      loop.delta = Counters::read(sched) - c0;
    }
    for (std::size_t c = 0; c < client.size(); ++c) {
      if (client[c] == -2 &&
          steps >= static_cast<std::int64_t>(c) * cl.stagger_steps) {
        submit(c, a);
      }
    }
    const bool traced = in_window && trace_slice(a, r.t0);
    tracer.set_active(traced);
    const std::int64_t allocs0 = alloc_count();
    sched.step();
    ++steps;
    const double b = now_s();
    const std::int64_t allocs = alloc_count() - allocs0;
    double work = 0.0;
    for (const serve::ServeEvent& ev : sched.drain_events()) {
      const std::int64_t i =
          index_of[static_cast<std::size_t>(ev.id - first_sid)];
      Outcome& o = r.outcomes[static_cast<std::size_t>(i)];
      if (ev.kind == serve::ServeEventKind::kToken) {
        int& n = seen[static_cast<std::size_t>(i)];
        // A request's first token closes its prefill: count those rows too.
        work += 1.0 + (n == 0 ? static_cast<double>(
                                    r.requests[static_cast<std::size_t>(i)]
                                        .prompt.size())
                              : 0.0);
        if (n++ == 0) o.first = b;
        o.last = b;
        continue;
      }
      if (ev.kind != serve::ServeEventKind::kTerminal) continue;
      const serve::RequestRecord rec = sched.request(ev.id);
      o.done = true;
      o.tokens = rec.tokens;
      o.ok = rec.state == serve::RequestState::kFinished &&
             static_cast<int>(o.tokens.size()) ==
                 r.requests[static_cast<std::size_t>(i)].max_new_tokens;
      o.sim_submit_ps = rec.sim_submit_ps;
      o.sim_first_ps = rec.sim_first_token_ps;
      o.sim_finish_ps = rec.sim_finish_ps;
      if (i < needed && ++needed_done == needed) {
        // Sim throughput up to the moment the needed requests are served:
        // a step-clock instant, so the value is exact for a given seed.
        const Counters c = Counters::read(sched);
        if (c.sim_time_ps > 0) {
          r.sim.tok_s = c.occupancy_sum / (c.sim_time_ps * 1e-12);
        }
      }
      for (std::size_t c = 0; c < client.size(); ++c) {
        if (client[c] == ev.id) submit(c, b);
      }
    }
    if (in_window) {
      loop.step_s.push_back(b - a);
      loop.allocs += allocs;
      (traced ? loop.traced_work : loop.plain_work) += work;
      (traced ? loop.traced_s : loop.plain_s) += b - a;
      tracer.add("step", "serve", 1, a, b);
    }
  }
  if (in_window) {  // issuing stopped before the window closed
    r.t1 = now_s();
    loop.delta = Counters::read(sched) - c0;
  }
  tracer.set_active(false);

  std::vector<double> ttft, tpot;
  for (std::int64_t i = cl.clients;
       i < std::min(cl.clients + cl.sim_requests, issued); ++i) {
    const Outcome& o = r.outcomes[static_cast<std::size_t>(i)];
    if (o.sim_first_ps < 0) continue;
    ttft.push_back(static_cast<double>(o.sim_first_ps - o.sim_submit_ps) *
                   1e-6);
    if (o.tokens.size() >= 2) {
      tpot.push_back(static_cast<double>(o.sim_finish_ps - o.sim_first_ps) *
                     1e-6 / static_cast<double>(o.tokens.size() - 1));
    }
  }
  r.sim.ttft_p50_us = median(ttft);
  r.sim.tpot_p50_us = median(tpot);
  return r;
}

RunData run_offline(const Workload& w, const RunOptions& opt, Tracer& tracer) {
  RunData run;
  util::ThreadPool::global().resize(w.pool_width);
  const int fds0 = count_open_fds();
  Deployment dep;
  std::unique_ptr<serve::Scheduler> sched;
  const auto teardown = [&] {
    sched.reset();
    dep = Deployment{};
  };
  const auto build = [&] {
    dep = deploy(w);
    sched = std::make_unique<serve::Scheduler>(*dep.model,
                                               scheduler_config(w, true));
    return dep.deploy_s;
  };
  time_setups(run, opt.smoke, teardown, build);
  if (w.tensor_parallel) run.shard_apply_s = dep.shard_apply_s;

  ClosedLoop cl;
  cl.clients = w.clients;
  cl.stagger_steps = w.stagger_steps;
  cl.warmup_s = opt.smoke ? 0.3 : w.warmup_s;
  cl.window_s = opt.seconds;
  cl.checked = w.checked;
  cl.sim_requests = opt.smoke ? 8 : w.sim_requests;
  ClosedLoopRun cr = run_closed_loop(*sched, w, opt.seed, cl, tracer);
  run.requests = std::move(cr.requests);
  run.outcomes = std::move(cr.outcomes);
  run.t0 = cr.t0;
  run.t1 = cr.t1;
  run.loop = std::move(cr.loop);
  run.window = run.loop.delta;
  run.sim = cr.sim;
  const LoopStats& l = run.loop;
  if (opt.trace && l.traced_work > 0 && l.plain_work > 0) {
    run.trace_overhead_frac =
        (l.plain_work / l.plain_s) / (l.traced_work / l.traced_s) - 1.0;
  }
  const serve::Metrics m = sched->metrics();
  run.kv_high_water_frac = static_cast<double>(m.kv_high_water_tokens) /
                           static_cast<double>(m.kv_budget_tokens);

  audit_idle(*sched, run.errors);
  check_alone(*dep.model, w, run);

  if (opt.trace) {
    run.shape = mean_step(run);
    run.layers = replay_layers(*dep.model, run.shape, w.tensor_parallel,
                               opt.smoke ? 0.5 : 3.0, tracer, run.extra);
  }
  time_setups(run, opt.smoke, teardown, build);
  teardown();
  if (fds0 >= 0 && count_open_fds() > fds0) {
    run.errors.push_back("file descriptors leaked");
  }
  return run;
}

}  // namespace nora::bench
