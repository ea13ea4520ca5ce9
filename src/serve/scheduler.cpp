#include "serve/scheduler.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <stdexcept>

#include "util/rng.hpp"

namespace nora::serve {

const char* to_string(BatchPolicy policy) {
  switch (policy) {
    case BatchPolicy::kGrowth: return "growth";
    case BatchPolicy::kLatencyAware: return "latency";
  }
  return "?";
}

BatchPolicy batch_policy_from_string(const std::string& s) {
  std::string lower(s);
  std::transform(lower.begin(), lower.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (lower == "growth") return BatchPolicy::kGrowth;
  if (lower == "latency" || lower == "latency-aware" ||
      lower == "latency_aware") {
    return BatchPolicy::kLatencyAware;
  }
  throw std::invalid_argument("unknown batch policy '" + s +
                              "' (expected growth|latency)");
}

const char* to_string(RequestState state) {
  switch (state) {
    case RequestState::kQueued: return "queued";
    case RequestState::kRunning: return "running";
    case RequestState::kFinished: return "finished";
    case RequestState::kCancelled: return "cancelled";
    case RequestState::kExpired: return "expired";
    case RequestState::kRejected: return "rejected";
  }
  return "?";
}

namespace {
std::int64_t kv_bytes_per_token(const nn::TransformerConfig& cfg) {
  // One cached position: K and V rows of d_model floats in every layer.
  return cfg.n_layers * 2 * cfg.d_model *
         static_cast<std::int64_t>(sizeof(float));
}
}  // namespace

Scheduler::Scheduler(nn::TransformerLM& model, SchedulerConfig cfg)
    : model_(model),
      cfg_(cfg),
      pool_(cfg.kv_budget_tokens > 0
                ? cfg.kv_budget_tokens
                : static_cast<std::int64_t>(std::max(cfg.max_batch, 1)) *
                      model.config().max_seq,
            kv_bytes_per_token(model.config())),
      epoch_(std::chrono::steady_clock::now()) {
  if (cfg_.max_batch < 1) {
    throw std::invalid_argument("Scheduler: max_batch must be >= 1");
  }
  if (cfg_.step_dt_s < 0.0f) {
    throw std::invalid_argument("Scheduler: negative step_dt_s");
  }
  if (cfg_.retry.max_attempts < 1) {
    throw std::invalid_argument("Scheduler: retry.max_attempts must be >= 1");
  }
  if (cfg_.retry.backoff_base_steps < 1 || cfg_.retry.backoff_cap_steps < 1 ||
      cfg_.retry.jitter_steps < 0) {
    throw std::invalid_argument("Scheduler: invalid retry backoff/jitter");
  }
  if (cfg_.maintenance_window_steps < 0) {
    throw std::invalid_argument("Scheduler: negative maintenance window");
  }
  if (cfg_.prefill_tokens_per_step < 0) {
    throw std::invalid_argument("Scheduler: negative prefill_tokens_per_step");
  }
  if (cfg_.shard_replay && !cfg_.timing.enabled) {
    throw std::invalid_argument(
        "Scheduler: shard_replay requires timing.enabled");
  }
  if (cfg_.timing.enabled) {
    hw_timing_.emplace(cfg_.timing);  // validates the timing config
  }
  metrics_.kv_budget_tokens = pool_.budget_tokens();
  metrics_.kv_bytes_per_token = pool_.bytes_per_token();
}

double Scheduler::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::int64_t Scheduler::footprint(const RequestParams& p) const {
  // Worst-case cache length: the whole prompt plus every new token
  // except the last (which is emitted without being appended), clamped
  // to the model's hard ceiling.
  const std::int64_t want = static_cast<std::int64_t>(p.prompt.size()) +
                            static_cast<std::int64_t>(p.max_new_tokens) - 1;
  return std::min(want, model_.config().max_seq);
}

std::int64_t Scheduler::backoff_steps_locked(std::int64_t id,
                                             int attempt) const {
  // Bounded exponential: attempt 2 waits base, attempt 3 waits 2*base,
  // ... capped. Jitter comes from a counter-keyed stream over
  // (seed, id, attempt), never from a shared stateful RNG, so the retry
  // schedule of a given workload is bit-identical across runs and
  // independent of what else is in flight.
  const RetryPolicy& r = cfg_.retry;
  std::int64_t b = r.backoff_base_steps;
  for (int k = 2; k < attempt && b < r.backoff_cap_steps; ++k) b *= 2;
  b = std::min<std::int64_t>(b, r.backoff_cap_steps);
  if (r.jitter_steps > 0) {
    const std::uint64_t draw = util::derive_stream(
        util::derive_seed(cfg_.seed, "serve-retry"),
        static_cast<std::uint64_t>(id), static_cast<std::uint64_t>(attempt));
    b += static_cast<std::int64_t>(
        draw % static_cast<std::uint64_t>(r.jitter_steps + 1));
  }
  return std::max<std::int64_t>(b, 1);
}

bool Scheduler::expired_locked(std::int64_t id, const RequestParams& p) const {
  return p.deadline_steps > 0 &&
         step_ >= records_[static_cast<std::size_t>(id)].submit_step +
                      p.deadline_steps;
}

void Scheduler::emit_token_locked(std::int64_t id, int token, bool degraded) {
  if (!cfg_.record_events) return;
  ServeEvent e;
  e.kind = ServeEventKind::kToken;
  e.id = id;
  e.step = step_;
  e.token = token;
  e.degraded = degraded;
  events_.push_back(e);
}

void Scheduler::emit_terminal_locked(std::int64_t id, RequestState state,
                                     ServeError error) {
  if (!cfg_.record_events) return;
  ServeEvent e;
  e.kind = ServeEventKind::kTerminal;
  e.id = id;
  e.step = step_;
  e.state = state;
  e.error = error;
  events_.push_back(e);
}

void Scheduler::emit_discard_locked(std::int64_t id) {
  if (!cfg_.record_events) return;
  ServeEvent e;
  e.kind = ServeEventKind::kDiscard;
  e.id = id;
  e.step = step_;
  events_.push_back(e);
}

void Scheduler::reject_locked(RequestRecord& rec, ServeError code,
                              std::string detail) {
  rec.state = RequestState::kRejected;
  rec.error = code;
  rec.error_detail = std::move(detail);
  rec.finish_step = step_;
  ++metrics_.rejected;
  ++metrics_.rejected_by_code[static_cast<std::size_t>(code)];
  emit_terminal_locked(rec.id, RequestState::kRejected, code);
}

std::int64_t Scheduler::submit(RequestParams params) {
  std::lock_guard<std::mutex> lock(m_);
  const std::int64_t id = next_id_++;
  RequestRecord rec;
  rec.id = id;
  rec.prompt_tokens = static_cast<std::int64_t>(params.prompt.size());
  rec.submit_step = step_;
  rec.stream = params.stream_seed != 0
                   ? params.stream_seed
                   : util::derive_stream(
                         util::derive_seed(cfg_.seed, "serve-request"),
                         static_cast<std::uint64_t>(id));
  ++metrics_.submitted;
  submit_s_.push_back(now_s());
  if (hw_timing_) rec.sim_submit_ps = sim_now_ps_;

  ServeError code = ServeError::kNone;
  std::string detail;
  if (params.prompt.empty()) {
    code = ServeError::kEmptyPrompt;
  } else if (params.max_new_tokens <= 0) {
    code = ServeError::kMaxTokensNonPositive;
    detail = "max_new_tokens = " + std::to_string(params.max_new_tokens);
  } else if (params.deadline_steps < 0) {
    // 0 is the documented "no deadline"; a negative value is a caller
    // bug, not an immediately-expired request — reject it loudly.
    code = ServeError::kDeadlineNegative;
    detail = "deadline_steps = " + std::to_string(params.deadline_steps);
  } else if (static_cast<std::int64_t>(params.prompt.size()) >=
             model_.config().max_seq) {
    code = ServeError::kPromptTooLong;
    detail = std::to_string(params.prompt.size()) + " tokens leave no room "
             "under max_seq " + std::to_string(model_.config().max_seq);
  } else if (footprint(params) > pool_.budget_tokens()) {
    code = ServeError::kFootprintOverBudget;
    detail = "KV footprint " + std::to_string(footprint(params)) +
             " > pool budget " + std::to_string(pool_.budget_tokens());
  } else if (cfg_.reject_during_maintenance && in_maintenance_locked()) {
    code = ServeError::kMaintenance;
    detail = "maintenance window open until step " +
             std::to_string(maintenance_until_);
  } else if (cfg_.queue_capacity > 0 &&
             queue_.size() >= cfg_.queue_capacity) {
    code = ServeError::kQueueFull;
    detail = std::to_string(queue_.size()) + " waiting (capacity " +
             std::to_string(cfg_.queue_capacity) + ")";
  }
  if (code != ServeError::kNone) {
    reject_locked(rec, code, std::move(detail));
    records_.push_back(std::move(rec));
    return id;
  }

  rec.state = RequestState::kQueued;
  records_.push_back(std::move(rec));
  queue_.push_back({id, std::move(params), 0});
  return id;
}

bool Scheduler::cancel(std::int64_t id) {
  std::lock_guard<std::mutex> lock(m_);
  if (id < 0 || id >= static_cast<std::int64_t>(records_.size())) return false;
  const RequestState s = records_[static_cast<std::size_t>(id)].state;
  if (s != RequestState::kQueued && s != RequestState::kRunning) return false;
  cancels_.push_back(id);
  return true;
}

void Scheduler::retire_locked(Active& a, RequestState state) {
  RequestRecord& rec = records_[static_cast<std::size_t>(a.id)];
  rec.state = state;
  rec.finish_step = step_;
  rec.wall_s = now_s() - submit_s_[static_cast<std::size_t>(a.id)];
  metrics_.request_wall_s.push_back(rec.wall_s);
  metrics_.generated_tokens += static_cast<std::int64_t>(rec.tokens.size());
  metrics_.degraded_tokens += rec.degraded_tokens;
  if (hw_timing_) {
    rec.sim_finish_ps = sim_now_ps_;
    if (state == RequestState::kFinished && rec.sim_first_token_ps >= 0 &&
        rec.tokens.size() >= 2) {
      // Mean decode interval after the first token, on the sim clock.
      metrics_.sim_tpot_us.push_back(
          static_cast<double>(rec.sim_finish_ps - rec.sim_first_token_ps) /
          static_cast<double>(rec.tokens.size() - 1) * 1e-6);
    }
  }
  if (a.cache != nullptr) {
    // Publish the prompt's KV rows for the next request on this stream —
    // but only from a COLD, UNTAINTED run: a leased base means the slab
    // lacks the prefix rows, and any digital-bypass token means some
    // rows came off the fp32 path and would break the bit-identical-to-
    // cold-run contract for a future reader. Row-coupled input scaling
    // (kAvgAbsMax) breaks that contract too: a row's bits depend on the
    // rows that shared its call.
    const bool publish = state == RequestState::kFinished &&
                         a.base == nullptr && rec.degraded_tokens == 0 &&
                         model_.rows_independent();
    if (publish) {
      pool_.publish_prefix(rec.stream, a.origin.prompt, a.cache);
    } else {
      pool_.release(a.cache);
    }
    a.cache = nullptr;
  }
  if (a.base != nullptr) {
    pool_.release_prefix(a.base);
    a.base = nullptr;
  }
  switch (state) {
    case RequestState::kFinished:
      ++metrics_.finished;
      metrics_.finished_tokens += static_cast<std::int64_t>(rec.tokens.size());
      break;
    case RequestState::kCancelled: ++metrics_.cancelled; break;
    case RequestState::kExpired: ++metrics_.expired; break;
    default: break;
  }
  emit_terminal_locked(a.id, state, rec.error);
}

void Scheduler::requeue_locked(Active& a) {
  // Transient failure: the attempt is abandoned — its slab goes back to
  // the pool and its partial output is discarded (a retry restarts the
  // prompt from scratch; keeping half of an old decode would splice two
  // different noise histories into one "output"). The request itself
  // returns to the queue with exponential backoff.
  RequestRecord& rec = records_[static_cast<std::size_t>(a.id)];
  rec.state = RequestState::kQueued;
  metrics_.wasted_tokens += static_cast<std::int64_t>(rec.tokens.size());
  rec.tokens.clear();
  rec.logits.clear();
  rec.degraded_tokens = 0;
  if (a.cache != nullptr) {
    pool_.release(a.cache);
    a.cache = nullptr;
  }
  if (a.base != nullptr) {
    pool_.release_prefix(a.base);
    a.base = nullptr;
  }
  ++metrics_.retries;
  ++rec.attempts;
  queue_.push_back(
      {a.id, std::move(a.origin),
       step_ + backoff_steps_locked(a.id, rec.attempts)});
  emit_discard_locked(a.id);
}

bool Scheduler::admit_locked() {
  // Admission is paused for the whole maintenance window: the analog
  // substrate is being repaired, and prefilling new requests through
  // the digital bypass would silently hand out fully-degraded outputs.
  if (in_maintenance_locked()) return false;
  bool admitted_any = false;
  // Latency-aware policy: bound the prompt tokens co-admitted this step
  // so one arrival burst doesn't convoy into a single giant prefill that
  // delays every first token in it. The first prefill of a step is
  // always admitted (prefill_taken == 0), so an oversized prompt can
  // never livelock the queue.
  const bool latency_aware = cfg_.batch_policy == BatchPolicy::kLatencyAware;
  const std::int64_t prefill_budget = cfg_.prefill_tokens_per_step > 0
                                          ? cfg_.prefill_tokens_per_step
                                          : model_.config().max_seq;
  std::int64_t prefill_taken = 0;
  // Index walk instead of front-pop: backoff-delayed retries are
  // *skipped* (they forfeited their FIFO position), while a ready
  // request blocked on the pool still halts the scan under the queue
  // policy (no overtake). Entries appended during the walk (requeues)
  // are not rescanned this step.
  std::size_t qi = 0;
  std::size_t scan_end = queue_.size();
  while (qi < scan_end &&
         static_cast<int>(running_.size()) < cfg_.max_batch) {
    Pending& p = queue_[qi];
    if (p.not_before > step_) {
      ++qi;  // still backing off; younger requests may overtake
      continue;
    }
    const std::int64_t id = p.id;
    RequestRecord& rec = records_[static_cast<std::size_t>(id)];
    const auto at = queue_.begin() + static_cast<std::ptrdiff_t>(qi);
    const std::int64_t prompt_len =
        static_cast<std::int64_t>(p.params.prompt.size());
    if (latency_aware && prefill_taken > 0 &&
        prefill_taken + prompt_len > prefill_budget) {
      // Budget spent: later arrivals prefill on subsequent steps. Stop
      // scanning (no overtake — the same FIFO stance as the pool-full
      // queue policy).
      break;
    }
    // Prefix lease first: a hit shrinks both the prefill (only the
    // suffix is computed) and the private slab the budget must cover.
    // The request's own stream key is what makes the shared rows
    // bit-identical to the prefill it skips — unless some layer couples
    // rows, in which case the request is prefilled cold.
    const KvCachePool::PrefixLease pl =
        model_.rows_independent()
            ? pool_.lease_prefix(rec.stream, p.params.prompt)
            : KvCachePool::PrefixLease{};
    nn::KvCache* cache = pool_.acquire(footprint(p.params) - pl.tokens);
    if (cache == nullptr) {
      if (pl.base != nullptr) pool_.release_prefix(pl.base);
      if (!cfg_.reject_on_pool_full) {
        // FIFO: wait for retirements to free budget rather than letting
        // a smaller request overtake the head of the queue.
        break;
      }
      --scan_end;
      if (rec.attempts < cfg_.retry.max_attempts) {
        // Transient: schedule another attempt with backoff instead of
        // failing the request outright. It moves to the back of the
        // queue — it forfeits its position for this attempt.
        ++rec.attempts;
        ++metrics_.retries;
        p.not_before = step_ + backoff_steps_locked(id, rec.attempts);
        Pending retry = std::move(p);
        queue_.erase(at);
        queue_.push_back(std::move(retry));
        continue;
      }
      const bool retried = rec.attempts > 1;
      reject_locked(
          rec,
          retried ? ServeError::kRetryBudgetExhausted
                  : ServeError::kPoolExhausted,
          retried ? "pool still full after " + std::to_string(rec.attempts) +
                        " attempts"
                  : "KV footprint " + std::to_string(footprint(p.params)) +
                        " > " + std::to_string(pool_.free_tokens()) +
                        " free tokens");
      queue_.erase(at);
      continue;
    }
    rec.state = RequestState::kRunning;
    if (rec.start_step < 0) {
      rec.start_step = step_;
      metrics_.queue_wait_steps_sum +=
          static_cast<double>(step_ - rec.submit_step);
    }
    ++metrics_.admitted;
    metrics_.prompt_tokens += rec.prompt_tokens;
    Active a;
    a.id = id;
    a.cache = cache;
    a.base = pl.base;
    a.base_len = pl.tokens;
    a.origin = std::move(p.params);
    // Prefill only the suffix past the shared prefix; its rows join the
    // leased base rows to form the full global history.
    a.pending.assign(a.origin.prompt.begin() +
                         static_cast<std::ptrdiff_t>(a.base_len),
                     a.origin.prompt.end());
    a.remaining = a.origin.max_new_tokens;
    // Room for every token this run can emit (max_seq bounds it), so
    // harvesting never regrows the record mid-decode.
    rec.tokens.reserve(static_cast<std::size_t>(std::min<std::int64_t>(
        a.remaining, model_.config().max_seq)));
    queue_.erase(at);
    --scan_end;
    running_.push_back(std::move(a));
    admitted_any = true;
    prefill_taken += prompt_len;
  }
  return admitted_any;
}

void Scheduler::open_maintenance_locked() {
  if (step_ >= maintenance_until_) ++metrics_.maintenance_windows;
  maintenance_until_ =
      std::max(maintenance_until_, step_ + cfg_.maintenance_window_steps);
  if (cfg_.maintenance_policy == MaintenancePolicy::kRequeue) {
    // Drain: give every in-flight request with retry budget back to the
    // queue; the rest stay and finish on the digital bypass — a window
    // may degrade or delay a request but never drop one.
    for (auto it = running_.begin(); it != running_.end();) {
      if (records_[static_cast<std::size_t>(it->id)].attempts <
          cfg_.retry.max_attempts) {
        requeue_locked(*it);
        it = running_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

bool Scheduler::step() {
  std::unique_lock<std::mutex> lock(m_);
  // 1. Cancels flagged since the previous step.
  //
  // Cancel-vs-retire audit (exactly-once pool release): cancel() only
  // flags an id; every state change happens here, under the lock, at a
  // step boundary. A request can reach retire_locked through at most one
  // of three doors per step — this cancels loop, the deadline sweep, or
  // the harvest below — because each door first checks the live state
  // (kQueued/kRunning) or membership in running_, and retire_locked
  // immediately (a) flips the record to a terminal state, (b) removes the
  // Active from running_ at the call site, and (c) nulls a.cache after
  // releasing it. A cancel racing a natural finish in the same step is
  // therefore safe in both orders: cancel-first retires the request and
  // erases it from running_ before the harvest walks it; finish-first
  // leaves the record terminal, so next step's cancels loop skips it (and
  // a second cancel of the same id re-checks the state too). Requeues
  // (maintenance drain, pool retry) flip the record back to kQueued
  // under the same lock before the next door check, so a cancel landing
  // after a requeue takes the queued door and drops the queue entry.
  // The KvCachePool::release throw on a non-live lease is the backstop
  // asserting this invariant, and the cancel-at-every-step and chaos
  // racing-cancel tests hammer it.
  for (const std::int64_t id : cancels_) {
    RequestRecord& rec = records_[static_cast<std::size_t>(id)];
    if (rec.state == RequestState::kQueued) {
      rec.state = RequestState::kCancelled;
      rec.finish_step = step_;
      ++metrics_.cancelled;
      queue_.erase(std::find_if(queue_.begin(), queue_.end(),
                                [&](const Pending& p) { return p.id == id; }));
      emit_terminal_locked(id, RequestState::kCancelled, rec.error);
    } else if (rec.state == RequestState::kRunning) {
      auto it = std::find_if(running_.begin(), running_.end(),
                             [&](const Active& a) { return a.id == id; });
      if (it != running_.end()) {
        retire_locked(*it, RequestState::kCancelled);
        running_.erase(it);
      }
    }
  }
  cancels_.clear();
  // 2. Deadlines (queued and running alike; expiry frees the slab). The
  // deadline is absolute from the original submission, so retried
  // attempts and maintenance stalls eat into the same budget.
  for (auto it = running_.begin(); it != running_.end();) {
    if (expired_locked(it->id, it->origin)) {
      retire_locked(*it, RequestState::kExpired);
      it = running_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (expired_locked(it->id, it->params)) {
      RequestRecord& rec = records_[static_cast<std::size_t>(it->id)];
      rec.state = RequestState::kExpired;
      rec.finish_step = step_;
      ++metrics_.expired;
      emit_terminal_locked(it->id, RequestState::kExpired, rec.error);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  // 3. Admission (paused while a maintenance window is open).
  admit_locked();
  if (running_.empty()) {
    const bool more = !queue_.empty();
    if (more) {
      // Starved tick (head-of-line blocked on the pool, maintenance
      // window, or retry backoff) still advances the step clock, so
      // deadlines, backoff timers and the window itself keep counting.
      ++step_;
      ++metrics_.steps;
    }
    return more;
  }
  ++metrics_.steps;
  ++metrics_.busy_steps;
  metrics_.occupancy_sum += static_cast<double>(running_.size());
  metrics_.max_occupancy = std::max(
      metrics_.max_occupancy, static_cast<std::int64_t>(running_.size()));
  const bool degraded_step = in_maintenance_locked();
  if (degraded_step) ++metrics_.maintenance_steps;

  // 4. Build the batch. Per-request state is only read here; the model
  // call below runs without the lock so submit()/cancel() never block on
  // a decode step. segments_ is member scratch (steady-state steps reuse
  // its capacity); nothing outside step() touches it, and step() itself
  // is single-caller by contract.
  segments_.clear();
  segments_.reserve(running_.size());
  for (Active& a : running_) {
    segments_.push_back({std::span<const int>(a.pending),
                         a.cache,
                         records_[static_cast<std::size_t>(a.id)].stream,
                         a.base,
                         a.base_len});
  }
  lock.unlock();
  const auto t0 = std::chrono::steady_clock::now();
  // Inside a maintenance window the analog substrate is off line being
  // repaired: decode through the non-destructive fp32 bypass instead of
  // stalling the batch. Only step() flips the bypass, and only around
  // this call, so the analog deployment is untouched for everyone else.
  Matrix logits;
  {
    // Timing on: collect this forward's op trace via the thread-local
    // sink (ops are emitted from this thread only, so the trace is a
    // pure function of the batch). Timing off: installs nullptr over
    // nullptr — a strict no-op.
    if (hw_timing_) trace_.clear();
    timing::ScopedTrace traced(hw_timing_ ? &trace_ : nullptr);
    if (degraded_step) model_.set_digital_bypass(true);
    logits = model_.forward_serve(
        segments_, nn::TransformerLM::LogitRows::kLastPerSegment);
    if (degraded_step) model_.set_digital_bypass(false);
  }
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  lock.lock();
  metrics_.wall_s += dt;
  if (hw_timing_) {
    // Replay BEFORE the harvest below: tokens emitted this step carry
    // the post-step simulated timestamp, exactly as real hardware would
    // deliver them after the step's latency elapsed.
    const timing::StepTiming st = cfg_.shard_replay
                                      ? hw_timing_->replay_pipelined(trace_)
                                      : hw_timing_->replay(trace_);
    sim_now_ps_ += st.total_ps;
    metrics_.sim_time_ps = sim_now_ps_;
    metrics_.sim_events += st.events;
    metrics_.sim_link_ps += st.link_ps;
    metrics_.sim_link_transfers += st.link_transfers;
    for (const timing::LayerTiming& lt : st.layers) {
      timing::add_layer_timing(timing_layers_, lt.layer, lt.ps, lt.ops);
    }
  }

  // 5. Harvest: greedy argmax of each segment's last row, which is
  // logits row idx. Survivors are compacted in place (stable order)
  // instead of round-tripping through a fresh `keep` vector every step.
  const std::int64_t vocab = model_.config().vocab_size;
  std::size_t kept = 0;
  for (std::size_t idx = 0; idx < running_.size(); ++idx) {
    Active& a = running_[idx];
    const auto last = logits.row(static_cast<std::int64_t>(idx));
    int best = 0;
    for (std::int64_t v = 1; v < vocab; ++v) {
      if (last[v] > last[best]) best = static_cast<int>(v);
    }
    RequestRecord& rec = records_[static_cast<std::size_t>(a.id)];
    rec.tokens.push_back(best);
    if (degraded_step) ++rec.degraded_tokens;
    emit_token_locked(a.id, best, degraded_step);
    if (cfg_.record_logits) {
      rec.logits.emplace_back(last.begin(), last.end());
    }
    if (rec.first_token_step < 0) {
      rec.first_token_step = step_ + 1;
      metrics_.ttft_steps_sum +=
          static_cast<double>(rec.first_token_step - rec.submit_step);
      rec.ttft_s = now_s() - submit_s_[static_cast<std::size_t>(a.id)];
      metrics_.ttft_s.push_back(rec.ttft_s);
      if (hw_timing_ && rec.sim_submit_ps >= 0) {
        rec.sim_first_token_ps = sim_now_ps_;
        metrics_.sim_ttft_us.push_back(
            static_cast<double>(sim_now_ps_ - rec.sim_submit_ps) * 1e-6);
      }
    }
    a.pending.assign(1, best);
    --a.remaining;
    // Done when the token budget is spent or the next decode step could
    // not fit (its input token would overflow cache capacity / max_seq).
    // The model ceiling counts the shared prefix; the slab capacity is
    // private rows only (that is all the pool leased).
    const bool full =
        a.base_len + a.cache->length + 1 > model_.config().max_seq ||
        (a.cache->capacity > 0 && a.cache->length + 1 > a.cache->capacity);
    if (a.remaining <= 0 || full) {
      retire_locked(a, RequestState::kFinished);
    } else {
      if (kept != idx) running_[kept] = std::move(a);
      ++kept;
    }
  }
  running_.resize(kept);
  ++step_;

  // 6. Integrity-monitor hook: fold serving time into the drift clock
  // and let ABFT statistics gathered from live traffic drive the
  // escalation ladder. Runs between batches, so in-flight requests see
  // a refreshed (or fallen-back) layer only at the next step boundary —
  // their caches and stream keys are untouched. Any action taken opens
  // (or extends) a maintenance window when the config prices repairs
  // at maintenance_window_steps > 0.
  if (cfg_.monitor != nullptr && cfg_.inspect_every > 0) {
    dt_accum_s_ += cfg_.step_dt_s;
    if (++busy_since_inspect_ >= cfg_.inspect_every) {
      busy_since_inspect_ = 0;
      std::int64_t actions = 0;
      bool substrate_changed = false;
      if (dt_accum_s_ > 0.0) {
        actions += cfg_.monitor->advance_to(
            cfg_.monitor->now() + static_cast<float>(dt_accum_s_));
        dt_accum_s_ = 0.0;
        // Advancing the drift clock changes the tile conductances a
        // cold run would see — even when no escalation fires.
        substrate_changed = true;
      }
      ++metrics_.monitor_inspections;
      actions += cfg_.monitor->inspect();
      metrics_.monitor_actions += actions;
      if (actions > 0) substrate_changed = true;
      if (substrate_changed) {
        // Published prefix rows predate the change: a future lease
        // would no longer be bit-identical to its cold run. Readers
        // already holding a lease keep their (pre-change) rows.
        pool_.invalidate_prefixes();
      }
      if (actions > 0 && cfg_.maintenance_window_steps > 0) {
        open_maintenance_locked();
      }
    }
  }
  return !running_.empty() || !queue_.empty();
}

std::int64_t Scheduler::run_until_idle() {
  std::int64_t n = 0;
  while (step()) ++n;
  return n + 1;  // the final returning-false call still did bookkeeping
}

RequestRecord Scheduler::request(std::int64_t id) const {
  std::lock_guard<std::mutex> lock(m_);
  if (id < 0 || id >= static_cast<std::int64_t>(records_.size())) {
    throw std::out_of_range("Scheduler::request: unknown id");
  }
  return records_[static_cast<std::size_t>(id)];
}

std::vector<RequestRecord> Scheduler::completed() const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<RequestRecord> out;
  for (const RequestRecord& r : records_) {
    if (r.state != RequestState::kQueued && r.state != RequestState::kRunning) {
      out.push_back(r);
    }
  }
  return out;
}

std::int64_t Scheduler::current_step() const {
  std::lock_guard<std::mutex> lock(m_);
  return step_;
}

std::size_t Scheduler::in_flight() const {
  std::lock_guard<std::mutex> lock(m_);
  return queue_.size() + running_.size();
}

bool Scheduler::in_maintenance() const {
  std::lock_guard<std::mutex> lock(m_);
  return in_maintenance_locked();
}

std::int64_t Scheduler::sim_now_ps() const {
  std::lock_guard<std::mutex> lock(m_);
  return sim_now_ps_;
}

std::vector<timing::LayerTiming> Scheduler::timing_layers() const {
  std::lock_guard<std::mutex> lock(m_);
  return timing_layers_;
}

std::vector<ServeEvent> Scheduler::drain_events() {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<ServeEvent> out;
  out.swap(events_);
  return out;
}

namespace {
void fill_prefix_metrics(const KvCachePool& pool, Metrics& m) {
  m.kv_prefix_hits = pool.prefix_leases();
  m.kv_prefix_hit_tokens = pool.prefix_hit_tokens();
  m.kv_prefix_tokens = pool.prefix_tokens();
  m.kv_prefix_published = pool.prefix_published();
  m.kv_prefix_evicted = pool.prefix_evicted();
  m.kv_prefix_invalidated = pool.prefix_invalidated();
}
}  // namespace

Metrics Scheduler::metrics() const {
  std::lock_guard<std::mutex> lock(m_);
  Metrics m = metrics_;
  m.kv_used_tokens = pool_.used_tokens();
  m.kv_high_water_tokens = pool_.high_water_tokens();
  fill_prefix_metrics(pool_, m);
  return m;
}

AuditSnapshot Scheduler::audit_snapshot() const {
  std::lock_guard<std::mutex> lock(m_);
  AuditSnapshot s;
  s.step = step_;
  s.in_maintenance = in_maintenance_locked();
  s.queued = queue_.size();
  s.running = running_.size();
  s.states.reserve(records_.size());
  s.token_counts.reserve(records_.size());
  s.degraded_counts.reserve(records_.size());
  for (const RequestRecord& r : records_) {
    s.states.push_back(r.state);
    s.token_counts.push_back(static_cast<std::int64_t>(r.tokens.size()));
    s.degraded_counts.push_back(r.degraded_tokens);
  }
  s.metrics = metrics_;
  s.metrics.kv_used_tokens = pool_.used_tokens();
  s.metrics.kv_high_water_tokens = pool_.high_water_tokens();
  fill_prefix_metrics(pool_, s.metrics);
  s.pool_budget = pool_.budget_tokens();
  s.pool_used = pool_.used_tokens();
  s.pool_live = static_cast<std::int64_t>(pool_.live());
  s.pool_acquires = pool_.total_acquires();
  s.pool_releases = pool_.total_releases();
  s.pool_prefix_tokens = pool_.prefix_tokens();
  s.pool_prefix_refs = pool_.prefix_refs();
  s.pool_prefix_leases = pool_.prefix_leases();
  s.pool_prefix_lease_releases = pool_.prefix_lease_releases();
  return s;
}

}  // namespace nora::serve
