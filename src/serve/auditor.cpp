#include "serve/auditor.hpp"

namespace nora::serve {

namespace {
bool is_terminal(RequestState s) {
  return s != RequestState::kQueued && s != RequestState::kRunning;
}
}  // namespace

void Auditor::expect(bool ok, std::int64_t step, const std::string& msg) {
  if (ok) return;
  ++found_this_check_;
  violations_.push_back("step " + std::to_string(step) + ": " + msg);
}

std::size_t Auditor::check() {
  return audit(sched_.audit_snapshot(), /*idle=*/false);
}

std::size_t Auditor::check_idle() {
  return audit(sched_.audit_snapshot(), /*idle=*/true);
}

std::size_t Auditor::audit(const AuditSnapshot& s, bool idle) {
  ++checks_;
  found_this_check_ = 0;
  const std::int64_t step = s.step;

  // --- Slab conservation ---------------------------------------------
  expect(s.pool_acquires - s.pool_releases == s.pool_live, step,
         "pool leak: acquires " + std::to_string(s.pool_acquires) +
             " - releases " + std::to_string(s.pool_releases) +
             " != live " + std::to_string(s.pool_live));
  expect(s.pool_used >= 0, step,
         "pool used negative: " + std::to_string(s.pool_used));
  expect(s.pool_used <= s.pool_budget, step,
         "pool over budget: " + std::to_string(s.pool_used) + " > " +
             std::to_string(s.pool_budget));
  // Every live lease belongs to a running request, one slab each.
  expect(s.pool_live == static_cast<std::int64_t>(s.running), step,
         "live leases " + std::to_string(s.pool_live) + " != running " +
             std::to_string(s.running));

  // --- Prefix-store conservation -------------------------------------
  // Every granted prefix lease is eventually released exactly once; the
  // outstanding refcount is the lifetime difference at every step.
  expect(s.pool_prefix_leases - s.pool_prefix_lease_releases ==
             s.pool_prefix_refs,
         step,
         "prefix lease leak: leases " + std::to_string(s.pool_prefix_leases) +
             " - releases " + std::to_string(s.pool_prefix_lease_releases) +
             " != refs " + std::to_string(s.pool_prefix_refs));
  expect(s.pool_prefix_tokens >= 0 && s.pool_prefix_tokens <= s.pool_budget,
         step,
         "prefix store residency out of range: " +
             std::to_string(s.pool_prefix_tokens));
  // A running request holds at most one prefix lease.
  expect(s.pool_prefix_refs <= static_cast<std::int64_t>(s.running), step,
         "prefix refs " + std::to_string(s.pool_prefix_refs) +
             " exceed running " + std::to_string(s.running));
  // Resident store tokens are part of the pool's used tokens.
  expect(s.pool_prefix_tokens <= s.pool_used, step,
         "prefix store " + std::to_string(s.pool_prefix_tokens) +
             " tokens exceed pool used " + std::to_string(s.pool_used));

  // --- State conservation --------------------------------------------
  expect(s.states.size() == static_cast<std::size_t>(s.metrics.submitted),
         step,
         "record count " + std::to_string(s.states.size()) +
             " != submitted " + std::to_string(s.metrics.submitted));
  std::int64_t n_queued = 0, n_running = 0, n_finished = 0, n_cancelled = 0,
               n_expired = 0, n_rejected = 0;
  for (const RequestState st : s.states) {
    switch (st) {
      case RequestState::kQueued: ++n_queued; break;
      case RequestState::kRunning: ++n_running; break;
      case RequestState::kFinished: ++n_finished; break;
      case RequestState::kCancelled: ++n_cancelled; break;
      case RequestState::kExpired: ++n_expired; break;
      case RequestState::kRejected: ++n_rejected; break;
    }
  }
  expect(n_running == static_cast<std::int64_t>(s.running), step,
         "running records " + std::to_string(n_running) + " != batch " +
             std::to_string(s.running));
  expect(n_queued == static_cast<std::int64_t>(s.queued), step,
         "queued records " + std::to_string(n_queued) + " != queue size " +
             std::to_string(s.queued));
  expect(n_finished == s.metrics.finished, step,
         "finished records " + std::to_string(n_finished) + " != metric " +
             std::to_string(s.metrics.finished));
  expect(n_cancelled == s.metrics.cancelled, step,
         "cancelled records " + std::to_string(n_cancelled) + " != metric " +
             std::to_string(s.metrics.cancelled));
  expect(n_expired == s.metrics.expired, step,
         "expired records " + std::to_string(n_expired) + " != metric " +
             std::to_string(s.metrics.expired));
  expect(n_rejected == s.metrics.rejected, step,
         "rejected records " + std::to_string(n_rejected) + " != metric " +
             std::to_string(s.metrics.rejected));
  // Exactly-one-outcome: live + terminal == submitted.
  expect(n_queued + n_running + n_finished + n_cancelled + n_expired +
                 n_rejected ==
             s.metrics.submitted,
         step, "state counts do not sum to submitted");

  // --- Terminal freeze -----------------------------------------------
  const std::size_t known = prev_states_.size();
  for (std::size_t id = 0; id < known && id < s.states.size(); ++id) {
    if (!is_terminal(prev_states_[id])) continue;
    expect(s.states[id] == prev_states_[id], step,
           "request " + std::to_string(id) + " left terminal state " +
               to_string(prev_states_[id]) + " for " +
               to_string(s.states[id]));
    expect(s.token_counts[id] == prev_tokens_[id], step,
           "request " + std::to_string(id) +
               " token count changed after terminal: " +
               std::to_string(prev_tokens_[id]) + " -> " +
               std::to_string(s.token_counts[id]));
  }
  prev_states_ = s.states;
  prev_tokens_ = s.token_counts;

  // --- Metrics / token conservation ----------------------------------
  std::int64_t by_code = 0;
  for (const std::int64_t c : s.metrics.rejected_by_code) by_code += c;
  expect(by_code == s.metrics.rejected, step,
         "rejected_by_code sums to " + std::to_string(by_code) +
             ", rejected = " + std::to_string(s.metrics.rejected));
  std::int64_t terminal_tokens = 0, terminal_degraded = 0;
  for (std::size_t id = 0; id < s.states.size(); ++id) {
    if (!is_terminal(s.states[id])) continue;
    terminal_tokens += s.token_counts[id];
    terminal_degraded += s.degraded_counts[id];
  }
  expect(terminal_tokens == s.metrics.generated_tokens, step,
         "terminal token sum " + std::to_string(terminal_tokens) +
             " != generated_tokens " +
             std::to_string(s.metrics.generated_tokens));
  expect(terminal_degraded == s.metrics.degraded_tokens, step,
         "terminal degraded sum " + std::to_string(terminal_degraded) +
             " != degraded_tokens " +
             std::to_string(s.metrics.degraded_tokens));

  // --- Idle drain ----------------------------------------------------
  if (idle) {
    expect(s.queued == 0 && s.running == 0, step,
           "idle audit with work in flight: queued " +
               std::to_string(s.queued) + ", running " +
               std::to_string(s.running));
    expect(n_queued == 0 && n_running == 0, step,
           "idle audit with non-terminal records");
    // With prefix caching, an idle pool legitimately retains published
    // prefix rows — but ONLY those: anything above the store's
    // residency is a leaked slab.
    expect(s.pool_used == s.pool_prefix_tokens, step,
           "idle pool holds " + std::to_string(s.pool_used) +
               " tokens but the prefix store only accounts for " +
               std::to_string(s.pool_prefix_tokens) + " (leaked slab)");
    expect(s.pool_prefix_refs == 0, step,
           "idle pool has " + std::to_string(s.pool_prefix_refs) +
               " outstanding prefix leases");
    expect(s.pool_live == 0, step,
           "idle pool has " + std::to_string(s.pool_live) + " live leases");
    expect(s.pool_acquires == s.pool_releases, step,
           "lifetime acquires " + std::to_string(s.pool_acquires) +
               " != releases " + std::to_string(s.pool_releases));
  }
  return found_this_check_;
}

}  // namespace nora::serve
