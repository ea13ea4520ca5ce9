// Serving metrics: per-request latency records and aggregate counters
// for the continuous-batching scheduler.
//
// Latencies are tracked on two clocks. The *step* clock (scheduler
// decode iterations) is fully deterministic and is what tests assert
// on; the *wall* clock feeds the operator-facing throughput and
// time-to-first-token numbers the serve_throughput bench reports.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/serve_error.hpp"

namespace nora::serve {

/// q-th percentile (q in [0,1]) with linear interpolation; 0 on empty.
/// Takes the samples by const reference (the old by-value signature
/// copied the whole vector per call) and sorts an internal scratch copy
/// exactly once. For several quantiles over the same samples use
/// percentiles() — one sort total instead of one per quantile.
double percentile(std::span<const double> values, double q);
/// Brace-literal convenience (std::span gains list-init only in C++26).
inline double percentile(std::initializer_list<double> values, double q) {
  return percentile(std::span<const double>(values.begin(), values.size()), q);
}

/// Evaluate all of `qs` (each in [0,1]) against `values` from a single
/// sorted pass. Returns one result per quantile, in order; all zeros on
/// an empty sample set (no sort performed).
std::vector<double> percentiles(std::span<const double> values,
                                std::span<const double> qs);

/// Process-wide count of sample sorts performed by percentile() /
/// percentiles() — a test hook: the regression test asserts a metrics
/// dump with N samples sorts at most once per sample vector.
std::int64_t percentile_sort_count();

struct Metrics {
  // Request outcomes.
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t finished = 0;
  std::int64_t cancelled = 0;
  std::int64_t expired = 0;
  std::int64_t rejected = 0;
  /// rejected, broken down by structured cause (indexed by ServeError;
  /// sums to `rejected`). kNone stays zero by construction.
  std::array<std::int64_t, static_cast<std::size_t>(ServeError::kCount)>
      rejected_by_code{};

  // Degraded-mode serving and retry/backoff.
  std::int64_t retries = 0;            // transient-condition requeues
  std::int64_t maintenance_windows = 0;  // windows opened by monitor actions
  std::int64_t maintenance_steps = 0;    // busy steps served under a window
  std::int64_t degraded_tokens = 0;    // tokens emitted via digital fallback
  std::int64_t wasted_tokens = 0;      // tokens discarded by retried attempts

  // Scheduler activity.
  std::int64_t steps = 0;       // step() calls that had any work to consider
  std::int64_t busy_steps = 0;  // steps that ran a decode batch
  double occupancy_sum = 0.0;   // batch size summed over busy steps
  std::int64_t max_occupancy = 0;

  // Token accounting.
  std::int64_t prompt_tokens = 0;     // prefilled tokens of admitted requests
  std::int64_t generated_tokens = 0;  // emitted by finished+cancelled+expired

  // Latency aggregates (deterministic step clock).
  double queue_wait_steps_sum = 0.0;  // submit -> admission, admitted requests
  double ttft_steps_sum = 0.0;        // submit -> first token
  // Wall-clock samples for percentiles (one per request that produced
  // its first token / finished).
  std::vector<double> ttft_s;
  std::vector<double> request_wall_s;
  double wall_s = 0.0;  // total serving wall time spent inside step()

  // KV pool accounting (tokens; bytes = tokens * kv_bytes_per_token).
  std::int64_t kv_budget_tokens = 0;
  std::int64_t kv_used_tokens = 0;
  std::int64_t kv_high_water_tokens = 0;
  std::int64_t kv_bytes_per_token = 0;

  // Cross-request prefix cache (see KvCachePool). hits/hit_tokens are
  // lifetime counters; prefix_tokens is the store's current residency.
  std::int64_t kv_prefix_hits = 0;        // leases granted
  std::int64_t kv_prefix_hit_tokens = 0;  // prompt tokens served warm
  std::int64_t kv_prefix_tokens = 0;      // resident store tokens (now)
  std::int64_t kv_prefix_published = 0;
  std::int64_t kv_prefix_evicted = 0;
  std::int64_t kv_prefix_invalidated = 0;

  // Integrity-monitor interaction.
  std::int64_t monitor_inspections = 0;
  std::int64_t monitor_actions = 0;  // rereads + refreshes + fallbacks

  // Simulated-hardware time from the timing co-simulator (all zero /
  // empty when SchedulerConfig::timing.enabled is false). The sim clock
  // is integer picoseconds and replay-exact: a pure function of the
  // workload, bit-identical at any host thread count.
  std::int64_t sim_time_ps = 0;    // simulated clock after the last step
  std::int64_t sim_events = 0;     // events of the dataflow model, all replays
  std::int64_t finished_tokens = 0;  // tokens of requests that FINISHED
  std::vector<double> sim_ttft_us;   // submit -> first token, sim clock
  std::vector<double> sim_tpot_us;   // per-token decode interval, sim clock
  // Inter-chip traffic from pipelined replay (zero when shard_replay is
  // off or every op sits on one chip).
  std::int64_t sim_link_ps = 0;        // sim time spent on chip-to-chip links
  std::int64_t sim_link_transfers = 0;  // individual link transfer events

  double mean_occupancy() const {
    return busy_steps > 0 ? occupancy_sum / static_cast<double>(busy_steps)
                          : 0.0;
  }
  double mean_queue_wait_steps() const {
    return admitted > 0 ? queue_wait_steps_sum / static_cast<double>(admitted)
                        : 0.0;
  }
  double tokens_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(generated_tokens) / wall_s : 0.0;
  }
  double ttft_p50_s() const { return percentile(ttft_s, 0.5); }
  double ttft_p95_s() const { return percentile(ttft_s, 0.95); }
  double sim_time_s() const { return static_cast<double>(sim_time_ps) * 1e-12; }
  /// Generated tokens per simulated second (0 without sim time).
  double sim_tokens_per_s() const {
    return sim_time_ps > 0
               ? static_cast<double>(generated_tokens) / sim_time_s()
               : 0.0;
  }
  /// Goodput: only tokens of requests that ran to completion count.
  double sim_goodput_tokens_per_s() const {
    return sim_time_ps > 0
               ? static_cast<double>(finished_tokens) / sim_time_s()
               : 0.0;
  }
  double sim_ttft_p50_us() const { return percentile(sim_ttft_us, 0.5); }
  double sim_ttft_p95_us() const { return percentile(sim_ttft_us, 0.95); }
  double sim_tpot_p50_us() const { return percentile(sim_tpot_us, 0.5); }
  double sim_tpot_p95_us() const { return percentile(sim_tpot_us, 0.95); }
  std::int64_t rejected_with(ServeError code) const {
    return rejected_by_code[static_cast<std::size_t>(code)];
  }

  /// One consistent read of every derived quantile. Both renderers go
  /// through this, so the console dump and /metrics JSON can never
  /// disagree on a percentile (each sample vector is sorted exactly
  /// once per snapshot; the old code computed them independently per
  /// renderer and could diverge when samples landed between the calls).
  struct Snapshot {
    double ttft_p50_s = 0.0;
    double ttft_p95_s = 0.0;
    double sim_ttft_p50_us = 0.0;
    double sim_ttft_p95_us = 0.0;
    double sim_tpot_p50_us = 0.0;
    double sim_tpot_p95_us = 0.0;
  };
  Snapshot snapshot() const;

  /// Multi-line human-readable dump.
  std::string to_string() const;
  /// Single JSON object (stable key order, machine-readable).
  std::string to_json() const;
};

}  // namespace nora::serve
