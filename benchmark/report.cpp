// Metrics from one run's observations, and their JSON renderings.
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "net/json.hpp"

namespace nora::bench {

namespace {

struct Latency {
  std::vector<double> ttft_ms, tpot_ms;
};

/// Client-observed latencies of the requests due inside the window.
Latency window_latency(const RunData& run) {
  Latency l;
  for (const Outcome& o : run.outcomes) {
    if (!o.done || o.due < run.t0 || o.due >= run.t1) continue;
    l.ttft_ms.push_back(1e3 * (o.first - o.due));
    if (o.tokens.size() >= 2) {
      l.tpot_ms.push_back(1e3 * (o.last - o.first) /
                          static_cast<double>(o.tokens.size() - 1));
    }
  }
  return l;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> end_to_end_metrics(const RunData& run) {
  const Latency l = window_latency(run);
  const double window_s = run.t1 - run.t0;
  return {
      {"setup_s", "s", median(run.setup_s)},
      {"gen_tok_s", "tok/s", ratio(run.window.occupancy_sum, window_s)},
      {"prompt_tok_s", "tok/s",
       ratio(static_cast<double>(run.window.prompt_tokens), window_s)},
      {"ttft_p50_ms", "ms", serve::percentile(l.ttft_ms, 0.5)},
      {"ttft_p90_ms", "ms", serve::percentile(l.ttft_ms, 0.9)},
      {"tpot_p50_ms", "ms", serve::percentile(l.tpot_ms, 0.5)},
      {"rss_mb", "MB", peak_rss_mb()},
      {"sim_ttft_p50_us", "us", run.sim.ttft_p50_us},
      {"sim_tpot_p50_us", "us", run.sim.tpot_p50_us},
      {"sim_tok_s", "tok/s", run.sim.tok_s},
  };
}

std::vector<Metric> per_layer_metrics(const RunData& run) {
  const LoopStats& loop = run.loop;
  const Counters& w = run.window;
  double step_total = 0.0;
  for (const double s : loop.step_s) step_total += s;
  std::vector<Metric> out = {
      {"core.deploy_s", "s", median(run.deploy_s)},
      {"serve.step_us_p50", "us", 1e6 * serve::percentile(loop.step_s, 0.5)},
      {"serve.step_us_p90", "us", 1e6 * serve::percentile(loop.step_s, 0.9)},
      {"serve.step_overhead_us", "us",
       1e6 * ratio(step_total - loop.delta.wall_s,
                   static_cast<double>(loop.delta.busy_steps))},
      {"serve.submit_us_p50", "us", 1e6 * median(loop.submit_s)},
      {"serve.occupancy_mean", "rows",
       ratio(w.occupancy_sum, static_cast<double>(w.busy_steps))},
      {"serve.queue_wait_steps_mean", "steps",
       ratio(w.queue_wait_steps_sum, static_cast<double>(w.admitted))},
      {"serve.prefix_hit_token_share", "frac",
       ratio(static_cast<double>(w.prefix_hit_tokens),
             static_cast<double>(w.prompt_tokens))},
      {"serve.kv_high_water_frac", "frac", run.kv_high_water_frac},
      {"serve.allocs_per_step", "count",
       ratio(static_cast<double>(loop.allocs),
             static_cast<double>(loop.step_s.size()))},
  };
  out.insert(out.end(), run.layers.begin(), run.layers.end());
  out.push_back({"trace_overhead_frac", "frac", run.trace_overhead_frac});
  return out;
}

std::vector<Metric> extra_metrics(const RunData& run) {
  const Latency l = window_latency(run);
  std::vector<Metric> out = run.extra;
  out.push_back({"tpot_p90_ms", "ms", serve::percentile(l.tpot_ms, 0.9)});
  out.push_back({"ttft_p99_ms", "ms", serve::percentile(l.ttft_ms, 0.99)});
  out.push_back({"tpot_p99_ms", "ms", serve::percentile(l.tpot_ms, 0.99)});
  out.push_back({"ttft_samples", "count", static_cast<double>(l.ttft_ms.size())});
  out.push_back({"tpot_samples", "count", static_cast<double>(l.tpot_ms.size())});
  if (run.shard_apply_s >= 0.0) {
    out.push_back({"shard.apply_s", "s", run.shard_apply_s});
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ',';
    s += net::json_escape(ms[i].name) + ":{\"value\":" +
         json_number(ms[i].value) + ",\"unit\":" + net::json_escape(ms[i].unit) +
         "}";
  }
  return s + "}";
}

std::string chrome_trace_json(const std::vector<Span>& spans, double origin) {
  std::string s = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* tracks[] = {"", "scheduler (submit/step)", "http requests",
                          "layer replay"};
  for (int tid = 1; tid <= 3; ++tid) {
    if (tid > 1) s += ',';
    s += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + tracks[tid] +
         "\"}}";
  }
  const auto us = [origin](double t) { return json_number(1e6 * (t - origin)); };
  for (const Span& sp : spans) {
    const std::string head = "{\"name\":" + net::json_escape(sp.name) +
                             ",\"cat\":\"" + sp.cat + "\",\"pid\":1,\"tid\":" +
                             std::to_string(sp.tid);
    if (sp.tid == 2) {
      // Request lifecycles overlap: async slices, nested by request id.
      const std::string id = ",\"id\":" + std::to_string(sp.id);
      s += "," + head + id + ",\"ph\":\"b\",\"ts\":" + us(sp.t0) + "}";
      s += "," + head + id + ",\"ph\":\"e\",\"ts\":" + us(sp.t1) + "}";
    } else {
      s += "," + head + ",\"ph\":\"X\",\"ts\":" + us(sp.t0) +
           ",\"dur\":" + json_number(1e6 * (sp.t1 - sp.t0));
      if (sp.id >= 0) s += ",\"args\":{\"request\":" + std::to_string(sp.id) + "}";
      s += "}";
    }
  }
  return s + "]}";
}

}  // namespace nora::bench
