// Fault-tolerant HTTP/1.1 front end for serve::Scheduler.
//
// A single-threaded, nonblocking server: one event loop owns the
// listener, every connection, the timeout wheel AND the scheduler's
// step() slot (step() is documented single-caller; submit()/cancel()
// are thread-safe so nothing else changes). Each connection runs the
// state machine
//
//   read -> parse (incremental, bounded) -> submit -> stream -> drain
//
// with exactly one armed deadline at a time: header timeout while a
// request is incomplete (slow-loris defense — the budget covers the
// WHOLE head, not each byte), idle timeout between requests, and a
// write-stall timeout whenever bytes are queued and the client is not
// draining them. A stalled or vanished client costs the system one
// Scheduler::cancel — never a stuck step loop, never a leaked KV slab.
//
// Robustness mapping at the edge:
//   * malformed request        -> 400/413/431/501/505, connection closed
//   * scheduler reject         -> ServeError-mapped status (see
//     http_status_for): invalid request 400/413, queue full 429 +
//     Retry-After, maintenance / pool pressure / retry budget 503 +
//     Retry-After (hint derived from the RetryPolicy backoff and the
//     observed step rate)
//   * connection cap           -> 503 shed at accept
//   * SIGTERM/SIGINT           -> graceful drain: stop accepting,
//     finish in-flight streams, 503 new work, force-cancel at the
//     drain deadline, exit 0
//
// Determinism: the loop never consults wall time directly — every
// decision takes `now_ms` from the caller. run() feeds steady_clock;
// tests and the chaos harness feed a virtual clock and SimTransports,
// which makes connection-lifecycle chaos replay-exact.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/http.hpp"
#include "net/poller.hpp"
#include "net/timeout_wheel.hpp"
#include "net/transport.hpp"
#include "serve/scheduler.hpp"

namespace nora::net {

/// ServeError -> HTTP status. 200 for kNone (not an error).
int http_status_for(serve::ServeError code);

/// Connection/HTTP outcome counters, reported at /metrics next to the
/// scheduler's serving metrics.
struct NetMetrics {
  std::int64_t accepted = 0;   // connections accepted or adopted
  std::int64_t shed = 0;       // refused over max_connections (503)
  std::int64_t closed = 0;
  std::int64_t max_active = 0;
  std::int64_t requests = 0;   // complete requests parsed
  std::int64_t responses_2xx = 0;
  std::int64_t responses_4xx = 0;
  std::int64_t responses_5xx = 0;
  std::int64_t malformed = 0;         // parse/protocol errors
  std::int64_t completions = 0;       // submitted to the scheduler
  std::int64_t streams_started = 0;   // chunked responses opened
  std::int64_t chunks_sent = 0;       // token chunks queued
  std::int64_t header_timeouts = 0;   // slow-loris kills (408)
  std::int64_t idle_timeouts = 0;     // keep-alive reaping
  std::int64_t write_stall_cancels = 0;   // stalled reader -> cancel
  std::int64_t disconnect_cancels = 0;    // client vanished mid-request
  std::int64_t overflow_closes = 0;       // write buffer cap exceeded
  std::int64_t discard_aborts = 0;        // requeue after tokens streamed
  std::int64_t drain_cancels = 0;         // drain deadline force-cancels
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;

  std::string to_json(std::int64_t active_now) const;
};

struct ServerConfig {
  int port = 0;               // 0 = ephemeral (port() after listen())
  int listen_backlog = 128;
  int max_connections = 1024;
  std::size_t max_header_bytes = 8192;
  std::size_t max_body_bytes = 65536;
  /// Per-connection pending-write cap. Streaming appends beyond this
  /// mean the client is hopelessly slow: the request is cancelled and
  /// the connection dropped. Complete (non-chunked) responses may
  /// exceed it transiently — they are bounded by construction.
  std::size_t max_write_buffer_bytes = 65536;
  std::int64_t idle_timeout_ms = 30000;
  std::int64_t header_timeout_ms = 5000;
  std::int64_t write_stall_timeout_ms = 5000;
  /// After request_shutdown(): how long in-flight requests may keep
  /// running before they are force-cancelled.
  std::int64_t drain_timeout_ms = 30000;
  std::int64_t wheel_tick_ms = 50;
  int default_max_new_tokens = 16;
  /// Hard cap on prompt length accepted at the HTTP layer (the
  /// scheduler applies its own max_seq check on top).
  int max_prompt_tokens = 4096;
  /// pump()/run() drive Scheduler::step(). Set false when an outer
  /// harness (the chaos soak) owns the step loop.
  bool step_scheduler = true;
  /// Requests that do not pass an explicit "stream_seed" get one derived
  /// from a fingerprint of their prompt's leading tokens instead of the
  /// scheduler's per-request-id default. Same prompt head -> same noise
  /// stream, which is what makes the KV prefix cache hit across HTTP
  /// requests (the pool only shares rows between requests on the same
  /// stream — see serve::KvCachePool). Clients that want statistically
  /// independent replays of the same prompt pass their own seeds.
  bool fingerprint_streams = true;
  /// Leading prompt tokens hashed into the fingerprint. Prompts agreeing
  /// on this many head tokens land on the same stream; the pool then
  /// shares exactly their common prefix.
  int fingerprint_tokens = 16;
};

class HttpServer {
 public:
  /// The scheduler's config().record_events must be true — the server
  /// streams from drain_events(). Throws std::invalid_argument if not.
  HttpServer(serve::Scheduler& sched, ServerConfig cfg);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // ---- real-socket mode -------------------------------------------------
  /// Bind + listen on 127.0.0.1:cfg.port. Throws on failure.
  void listen();
  int port() const;
  /// Event loop until drained (request_shutdown() via signal or call).
  /// Returns 0 on a clean drain, 1 if the drain was abandoned (second
  /// signal or drain deadline with connections still open).
  int run();

  // ---- deterministic mode (tests, chaos harness) ------------------------
  /// Add a connection over an arbitrary transport (usually a sim pipe).
  /// Returns the connection key (0 = shed at the connection cap).
  std::uint64_t adopt(std::unique_ptr<Transport> t, std::int64_t now_ms);
  /// One nonblocking iteration at virtual time now_ms: I/O sweep over
  /// all connections, timeouts, optional scheduler step, event routing.
  /// Returns true while any connection or server-owned request lives.
  bool pump(std::int64_t now_ms);

  // ---- drain ------------------------------------------------------------
  void request_shutdown(std::int64_t now_ms);
  bool draining() const { return draining_; }
  /// True once draining finished: no connections, no owned requests.
  bool drained() const;

  std::size_t connections() const { return conns_.size(); }
  const NetMetrics& net_metrics() const { return net_metrics_; }
  /// {"serve":<scheduler metrics>,"net":<connection metrics>}
  std::string metrics_json() const;
  serve::Scheduler& scheduler() { return sched_; }

 private:
  struct Conn {
    std::uint64_t key = 0;
    std::unique_ptr<Transport> t;
    HttpParser parser;
    std::string out;            // bytes queued for the client
    std::size_t out_off = 0;    // flushed prefix (compacted lazily)
    std::int64_t req_id = -1;   // scheduler request in flight, -1 = none
    bool streaming = false;     // chunked response in progress
    std::size_t streamed_tokens = 0;
    bool want_close = false;    // close once out is flushed
    bool dead = false;          // tear down at end of sweep
    enum class DeadlineKind { kNone, kHeader, kIdle, kWriteStall };
    DeadlineKind deadline = DeadlineKind::kNone;
    bool registered = false;    // poller registration (real fds only)
    bool poller_writable = false;  // current EPOLLOUT interest
  };

  std::size_t pending_out(const Conn& c) const { return c.out.size() - c.out_off; }
  void arm_deadline(Conn& c, std::int64_t now_ms);
  void queue_bytes(Conn& c, std::string_view bytes, std::int64_t now_ms);
  void queue_response(Conn& c, int status, std::string_view body,
                      std::int64_t now_ms, std::string_view extra_headers = {},
                      bool close_after = false);
  void handle_readable(Conn& c, std::int64_t now_ms);
  void handle_writable(Conn& c, std::int64_t now_ms);
  void dispatch(Conn& c, std::int64_t now_ms);
  void dispatch_completion(Conn& c, std::int64_t now_ms);
  void finish_response(Conn& c, std::int64_t now_ms);
  void route_events(std::int64_t now_ms);
  void expire_deadlines(std::int64_t now_ms);
  void step_scheduler_once();
  void abort_request(Conn& c, std::int64_t* counter);
  void close_conn(Conn& c);
  void reap_dead();
  void accept_pending(std::int64_t now_ms);
  void update_poller_interest(Conn& c);
  int retry_after_s() const;
  std::int64_t steady_now_ms() const;

  serve::Scheduler& sched_;
  ServerConfig cfg_;
  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<Poller> poller_;  // real mode only
  TimeoutWheel wheel_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::unordered_map<std::int64_t, std::uint64_t> req_conn_;  // req -> conn
  std::uint64_t next_key_ = 2;  // 0 = listener key, 1 = signal wake key
  NetMetrics net_metrics_;
  bool draining_ = false;
  std::int64_t drain_deadline_ms_ = -1;
  double ewma_step_s_ = 0.0;  // observed decode-step wall time
  std::vector<std::uint64_t> expired_scratch_;
};

}  // namespace nora::net
