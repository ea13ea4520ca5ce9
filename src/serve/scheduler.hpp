// Continuous-batching scheduler over the analog transformer.
//
// Requests (prompt, max_new_tokens, optional deadline) enter a FIFO
// queue; each step() the scheduler admits queued requests into the
// running batch as slots and KV budget allow, then drives ONE
// TransformerLM::forward_serve over the whole batch — newly admitted
// requests contribute their full prompt as a prefill segment, running
// requests contribute their single next-token decode segment. A request
// joins at any step and retires the moment it is done; its KV slab goes
// straight back to the pool, so the batch recomposes continuously
// instead of draining in static generations.
//
// Degraded-mode serving: the analog substrate is allowed to degrade
// *during* service. When the attached runtime::IntegrityMonitor takes
// an escalation action (re-read / refresh / digital fallback), the
// scheduler can open an explicit MAINTENANCE WINDOW instead of
// pretending the repair was free: admission pauses (queue reason
// ServeError::kMaintenance), and the in-flight batch either keeps
// decoding on the non-destructive fp32 digital bypass (tokens tallied
// per request as degraded_tokens) or is drained and retried later,
// per MaintenancePolicy. Transient admission failures (KV-pool
// exhaustion, maintenance) are re-queued under a RetryPolicy with
// bounded exponential backoff; the jitter comes from a counter-keyed
// RNG stream, so retry schedules are bit-reproducible.
//
// Determinism contract: each request's noise stream is keyed on its own
// (stream seed, request-local position) — see cim::StreamKey — so its
// tokens AND logits are bit-identical whether it is served alone,
// batched with any mix of other requests, or replayed across runs, at
// any thread-pool width. Scheduling decisions (deadlines, backoff,
// maintenance windows) use only the deterministic step counter; wall
// time feeds metrics exclusively. Tokens emitted inside a maintenance
// window come from the digital path and are therefore *flagged*
// (degraded_tokens) rather than silently passed off as analog output.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nn/transformer.hpp"
#include "runtime/integrity_monitor.hpp"
#include "serve/kv_cache_pool.hpp"
#include "serve/metrics.hpp"
#include "serve/serve_error.hpp"
#include "timing/hw_model.hpp"
#include "timing/trace.hpp"

namespace nora::serve {

enum class RequestState {
  kQueued,     // accepted, waiting for a batch slot / KV slab / backoff
  kRunning,    // admitted; holds a KV slab, decoding
  kFinished,   // emitted max_new_tokens (or hit its cache capacity)
  kCancelled,  // cancel() before finishing; partial output kept
  kExpired,    // deadline passed before finishing
  kRejected,   // refused (invalid / queue full / pool policy / retry spent)
};

const char* to_string(RequestState state);

struct RequestParams {
  std::vector<int> prompt;
  int max_new_tokens = 8;
  /// Steps after submission by which the request must FINISH. 0 means
  /// EXPLICITLY "no deadline" (the request may run forever); negative
  /// values are rejected at submit() with ServeError::kDeadlineNegative.
  /// The deadline is absolute from the original submission step — it is
  /// NOT extended by retries or maintenance windows.
  std::int64_t deadline_steps = 0;
  /// Noise-stream key for this request's rows; 0 derives one from the
  /// scheduler seed and the request id. Two requests with the same seed
  /// and prompt produce identical output — that is the reproducibility
  /// hook, not a bug.
  std::uint64_t stream_seed = 0;
};

struct RequestRecord {
  std::int64_t id = -1;
  RequestState state = RequestState::kQueued;
  std::uint64_t stream = 0;
  std::vector<int> tokens;  // generated so far (partial on cancel/expire)
  /// Last-position logits row per generated token (record_logits only) —
  /// what the batch-invariance property test compares bitwise.
  std::vector<std::vector<float>> logits;
  std::int64_t prompt_tokens = 0;
  std::int64_t submit_step = -1;
  std::int64_t start_step = -1;        // first admission step
  std::int64_t first_token_step = -1;  // TTFT on the step clock
  std::int64_t finish_step = -1;
  double ttft_s = 0.0;
  double wall_s = 0.0;
  /// Structured outcome cause; kNone unless rejected. error_detail adds
  /// the human-readable specifics (counts, budgets) for display.
  ServeError error = ServeError::kNone;
  std::string error_detail;
  /// Attempts scheduled so far (1 = original submission, +1 per retry).
  int attempts = 1;
  /// Tokens in `tokens` that were produced on the digital-fallback path
  /// inside a maintenance window (operators see which outputs were
  /// degraded). Reset when a retry discards the attempt's output.
  std::int64_t degraded_tokens = 0;
  /// Simulated-hardware clock stamps (picoseconds; -1 until reached,
  /// all -1 when timing is disabled). Stamps are taken at step
  /// boundaries of the replayed clock, so they are replay-exact for
  /// step-synchronous submission.
  std::int64_t sim_submit_ps = -1;
  std::int64_t sim_first_token_ps = -1;
  std::int64_t sim_finish_ps = -1;
};

/// What a ServeEvent describes. Events are the scheduler's push-side
/// observation stream for a network front end: instead of polling
/// request() per id per step (O(requests) copies), a server drains the
/// event log once per step and learns exactly what changed.
enum class ServeEventKind {
  kToken,     // one new token was emitted for `id`
  kTerminal,  // `id` reached a terminal state (state/error filled in)
  kDiscard,   // a transient failure discarded `id`'s partial output and
              // requeued it (a streaming server cannot unsend tokens —
              // it must either have sent none yet, or abort the stream)
};

/// One observation from step()/submit(). Recorded only when
/// SchedulerConfig::record_events is set; drained via drain_events().
struct ServeEvent {
  ServeEventKind kind = ServeEventKind::kToken;
  std::int64_t id = -1;
  std::int64_t step = 0;  // scheduler step the event was recorded at
  int token = -1;         // kToken: the emitted token id
  bool degraded = false;  // kToken: emitted via the digital bypass
  RequestState state = RequestState::kQueued;  // kTerminal: final state
  ServeError error = ServeError::kNone;        // kTerminal: cause
};

/// Bounded-exponential-backoff retry for transient conditions
/// (ServeError::is_transient): KV-pool exhaustion under the reject
/// policy, and maintenance-window drains under MaintenancePolicy::
/// kRequeue. Attempt numbering starts at 1 (the original submission);
/// max_attempts = 1 disables retries entirely.
struct RetryPolicy {
  int max_attempts = 1;
  /// Backoff before attempt k (k >= 2) is
  ///   min(backoff_base_steps * 2^(k-2), backoff_cap_steps)
  /// scheduler steps, plus jitter.
  int backoff_base_steps = 1;
  int backoff_cap_steps = 64;
  /// Max extra steps of jitter, drawn uniformly from a counter-keyed
  /// RNG stream over (scheduler seed, request id, attempt): the same
  /// submission replays the exact same retry schedule, run after run.
  int jitter_steps = 0;
};

/// How admission grows the batch each step.
enum class BatchPolicy {
  /// Greedy batch growth: admit every queued request that fits (slots +
  /// KV budget). Maximizes occupancy; a burst of long prompts convoys
  /// behind one giant prefill step and every TTFT in it pays for the
  /// whole batch.
  kGrowth,
  /// Latency-aware: cap the prompt tokens co-admitted per step
  /// (prefill_tokens_per_step), spreading prefill work across steps so
  /// early arrivals reach their first token sooner on the simulated
  /// clock. The first prefill of a step is always admitted regardless
  /// of budget (no livelock on oversized prompts). Token OUTPUTS are
  /// identical under either policy — request streams are batch
  /// invariant — only latency changes.
  kLatencyAware,
};

const char* to_string(BatchPolicy policy);
/// Parses "growth" / "latency" (case-insensitive); throws
/// std::invalid_argument otherwise.
BatchPolicy batch_policy_from_string(const std::string& s);

/// What happens to the in-flight batch when a maintenance window opens.
enum class MaintenancePolicy {
  /// Keep decoding through the non-destructive digital bypass; every
  /// token emitted inside the window is tallied as degraded.
  kDigitalFallback,
  /// Drain: release slabs and re-queue in-flight requests as retries
  /// (their partial output is discarded to wasted_tokens). Requests
  /// whose retry budget is already spent stay running on the digital
  /// bypass instead — a maintenance window never drops a request.
  kRequeue,
};

struct SchedulerConfig {
  /// Max concurrently running (decoding) requests per step.
  int max_batch = 8;
  /// KV pool budget in tokens; 0 = max_batch * model max_seq.
  std::int64_t kv_budget_tokens = 0;
  /// Max kQueued requests (backoff included; running and terminal ones
  /// excluded); submissions beyond this are rejected. 0 = unbounded.
  std::size_t queue_capacity = 0;
  /// When the pool cannot hold a request's worst-case footprint at
  /// admission time: true = reject it (or retry it, if the RetryPolicy
  /// grants attempts), false = leave it queued until retirements free
  /// budget (head-of-line blocking, no overtake — FIFO fairness over
  /// utilization). Backoff-delayed retries may always be overtaken:
  /// they forfeited their queue position when they failed.
  bool reject_on_pool_full = false;
  /// Keep per-token logits rows in RequestRecord (tests only; memory!).
  bool record_logits = false;
  /// Record ServeEvents (token emissions, terminal transitions, output
  /// discards) for drain_events(). A network front end sets this and
  /// drains after every step; with no drainer the log grows unbounded,
  /// so it is off by default.
  bool record_events = false;
  /// Base seed for derived per-request noise streams (and retry jitter).
  std::uint64_t seed = 7102;
  /// Retry/backoff policy for transient conditions.
  RetryPolicy retry;
  /// Optional runtime integrity monitor over the (analog) model. The
  /// scheduler calls inspect() every inspect_every busy steps, so ABFT
  /// flags raised by serving traffic trigger the re-read / refresh /
  /// fallback ladder mid-serve.
  runtime::IntegrityMonitor* monitor = nullptr;
  /// Virtual seconds of serving time one busy step represents; when > 0
  /// the scheduler advances the monitor's drift clock before inspecting.
  float step_dt_s = 0.0f;
  /// Busy steps between monitor inspections; 0 disables the hook.
  int inspect_every = 0;
  /// Steps a maintenance window stays open after the monitor takes any
  /// escalation action (models the wall-clock cost of a re-read /
  /// reprogram the instantaneous simulation hides). 0 = legacy
  /// behavior: actions are treated as free and no window opens —
  /// in-flight requests keep their analog path untouched.
  int maintenance_window_steps = 0;
  /// In-flight handling when a window opens (see MaintenancePolicy).
  MaintenancePolicy maintenance_policy = MaintenancePolicy::kDigitalFallback;
  /// Reject new submissions arriving inside a maintenance window with
  /// ServeError::kMaintenance instead of queueing them (load shedding
  /// for callers that would rather fail fast and retry elsewhere).
  bool reject_during_maintenance = false;
  /// Hardware timing co-simulation (timing.enabled=false is a strict
  /// no-op on the data path: no trace is installed, no replay runs, sim
  /// metrics stay zero). When enabled, every busy step's forward trace
  /// is replayed through timing::HwModel and the simulated clock feeds
  /// Metrics::sim_* — replay-exact at any host thread count.
  timing::TimingConfig timing;
  /// Multi-chip replay: busy steps replay through
  /// timing::HwModel::replay_pipelined — microbatches flow through the
  /// chip pipeline the trace ops' chip/tensor-parallel stamps describe
  /// (stamped by shard::apply_plan), and inter-chip transfer events
  /// feed Metrics::sim_link_*. Requires timing.enabled; meaningless
  /// (but harmless — it degenerates to a microbatched serial chain)
  /// without a shard plan applied to the model.
  bool shard_replay = false;
  /// Admission policy (see BatchPolicy).
  BatchPolicy batch_policy = BatchPolicy::kGrowth;
  /// kLatencyAware prompt-token budget per step; 0 = model max_seq.
  /// Negative values are rejected at construction.
  std::int64_t prefill_tokens_per_step = 0;
};

/// One consistent cross-section of the scheduler for invariant checking
/// (the chaos Auditor): every per-request state and token tally plus the
/// pool's conservation counters, captured under a single lock.
struct AuditSnapshot {
  std::int64_t step = 0;
  bool in_maintenance = false;
  std::size_t queued = 0;   // kQueued requests (incl. backoff)
  std::size_t running = 0;  // ids holding a slab
  std::vector<RequestState> states;        // indexed by request id
  std::vector<std::int64_t> token_counts;  // tokens.size() per id
  std::vector<std::int64_t> degraded_counts;  // degraded_tokens per id
  Metrics metrics;  // KV fields filled from the pool
  std::int64_t pool_budget = 0;
  std::int64_t pool_used = 0;
  std::int64_t pool_live = 0;
  std::int64_t pool_acquires = 0;
  std::int64_t pool_releases = 0;
  // Prefix-store conservation (see KvCachePool): at every step
  //   pool_prefix_leases - pool_prefix_lease_releases == pool_prefix_refs
  // and at idle the pool's used tokens are exactly the resident store.
  std::int64_t pool_prefix_tokens = 0;
  std::int64_t pool_prefix_refs = 0;
  std::int64_t pool_prefix_leases = 0;
  std::int64_t pool_prefix_lease_releases = 0;
};

/// FIFO queue + continuous batcher. All public methods are thread-safe;
/// step() itself must be called from one thread at a time (the serving
/// loop), while submit()/cancel() may race it from any thread.
class Scheduler {
 public:
  Scheduler(nn::TransformerLM& model, SchedulerConfig cfg = {});

  /// Enqueue a request. Always returns a request id; invalid requests
  /// (empty prompt, non-positive max_new_tokens, negative deadline,
  /// prompt that cannot fit max_seq, footprint larger than the whole
  /// pool, queue full) are recorded as kRejected with a structured
  /// ServeError instead of throwing.
  std::int64_t submit(RequestParams params);

  /// Request cancellation; takes effect at the next step() boundary.
  /// Returns false for unknown or already-terminal ids.
  bool cancel(std::int64_t id);

  /// Run one scheduling round: apply cancels/deadlines, admit from the
  /// queue, run one batched decode step, retire finished requests.
  /// Returns true if any request is still queued or running afterwards.
  bool step();

  /// step() until idle; returns the number of steps taken.
  std::int64_t run_until_idle();

  /// Snapshot of one request (throws std::out_of_range on unknown id).
  RequestRecord request(std::int64_t id) const;
  /// Terminal states only: finished + cancelled + expired + rejected.
  std::vector<RequestRecord> completed() const;

  std::int64_t current_step() const;
  /// Running + queued request count (terminal requests excluded).
  std::size_t in_flight() const;
  /// True while a maintenance window is open (admission paused,
  /// in-flight decode on the digital bypass).
  bool in_maintenance() const;

  /// Take (and clear) every ServeEvent recorded since the last drain.
  /// Empty unless config().record_events. Thread-safe, like submit().
  std::vector<ServeEvent> drain_events();

  /// Simulated-hardware clock (picoseconds; 0 unless timing enabled).
  std::int64_t sim_now_ps() const;
  /// Per-layer simulated time accumulated over all replayed steps, in
  /// first-appearance order. Empty unless timing is enabled.
  std::vector<timing::LayerTiming> timing_layers() const;

  /// Aggregate metrics snapshot (KV pool fields filled from the pool).
  Metrics metrics() const;
  /// Cheap full cross-section for invariant checking (no logits copies).
  AuditSnapshot audit_snapshot() const;

  const KvCachePool& pool() const { return pool_; }
  const SchedulerConfig& config() const { return cfg_; }

 private:
  struct Active {
    std::int64_t id = -1;
    nn::KvCache* cache = nullptr;  // private slab leased from pool_
    /// Shared prefix leased from the pool's prefix store: the first
    /// base_len prompt tokens' KV rows are read from `base` instead of
    /// being prefilled. Held (refcounted) until retire/requeue.
    const nn::KvCache* base = nullptr;
    std::int64_t base_len = 0;
    std::vector<int> pending;      // tokens to feed next step
    int remaining = 0;             // new tokens still to emit
    RequestParams origin;          // full params, kept for requeue/retry
  };
  /// A request waiting for admission. The attempt number lives in its
  /// RequestRecord::attempts.
  struct Pending {
    std::int64_t id = -1;
    RequestParams params;
    std::int64_t not_before = 0;   // backoff: not admitted before this step
  };

  // All helpers below assume m_ is held.
  std::int64_t footprint(const RequestParams& p) const;
  double now_s() const;
  void emit_token_locked(std::int64_t id, int token, bool degraded);
  void emit_terminal_locked(std::int64_t id, RequestState state,
                            ServeError error);
  void emit_discard_locked(std::int64_t id);
  bool in_maintenance_locked() const { return step_ < maintenance_until_; }
  /// True once `id`'s deadline (absolute from its submission) has passed.
  bool expired_locked(std::int64_t id, const RequestParams& p) const;
  /// Backoff (incl. keyed jitter) before the given attempt of `id`.
  std::int64_t backoff_steps_locked(std::int64_t id, int attempt) const;
  void reject_locked(RequestRecord& rec, ServeError code, std::string detail);
  void retire_locked(Active& a, RequestState state);
  /// Release the slab, discard the attempt's output and put the request
  /// back in the queue with backoff. Caller erases `a` from running_.
  void requeue_locked(Active& a);
  bool admit_locked();
  /// Open (or extend) a maintenance window after monitor actions.
  void open_maintenance_locked();

  nn::TransformerLM& model_;
  SchedulerConfig cfg_;
  KvCachePool pool_;
  /// Engaged only when cfg_.timing.enabled (construction validates the
  /// timing config); absent = zero timing work anywhere on the path.
  std::optional<timing::HwModel> hw_timing_;

  mutable std::mutex m_;
  std::chrono::steady_clock::time_point epoch_;
  std::int64_t next_id_ = 0;
  std::int64_t step_ = 0;
  std::int64_t maintenance_until_ = 0;  // window open while step_ < this
  std::deque<Pending> queue_;         // exactly the kQueued requests, FIFO
  std::vector<Active> running_;       // current batch, admission order
  // step() batch scratch: rebuilt each step, capacity reused. Only
  // step() touches it (step is single-caller; submit/cancel don't).
  std::vector<nn::TransformerLM::ServeSegment> segments_;
  std::vector<std::int64_t> cancels_;  // ids flagged since last step
  std::vector<RequestRecord> records_;  // indexed by id
  std::vector<ServeEvent> events_;    // pending drain_events() payload
  std::vector<double> submit_s_;      // wall submit time per id (epoch-rel)
  Metrics metrics_;
  int busy_since_inspect_ = 0;
  double dt_accum_s_ = 0.0;
  // Timing co-sim state (untouched when hw_timing_ is absent). trace_
  // is cleared and re-filled by each traced forward; sim_now_ps_
  // advances by each busy step's replayed duration.
  timing::Trace trace_;
  std::int64_t sim_now_ps_ = 0;
  std::vector<timing::LayerTiming> timing_layers_;
};

}  // namespace nora::serve
