#include "net/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "net/json.hpp"
#include "net/signals.hpp"

namespace nora::net {

namespace {
/// Poller keys reserved for non-connection fds.
constexpr std::uint64_t kListenerKey = 0;
constexpr std::uint64_t kWakeKey = 1;
constexpr std::uint64_t kFirstConnKey = 2;

/// Canned shed response, written best-effort to over-cap connections.
constexpr std::string_view kShedBody =
    "{\"error\":\"connection_cap\",\"detail\":\"server at max connections\"}";
}  // namespace

int http_status_for(serve::ServeError code) {
  switch (code) {
    case serve::ServeError::kNone:
      return 200;
    case serve::ServeError::kEmptyPrompt:
    case serve::ServeError::kMaxTokensNonPositive:
    case serve::ServeError::kDeadlineNegative:
    case serve::ServeError::kPromptTooLong:
      return 400;  // the request itself is invalid; retrying cannot help
    case serve::ServeError::kFootprintOverBudget:
      return 413;  // too large for this deployment, ever
    case serve::ServeError::kQueueFull:
      return 429;  // back off and retry: admission pressure
    case serve::ServeError::kMaintenance:
    case serve::ServeError::kPoolExhausted:
    case serve::ServeError::kRetryBudgetExhausted:
      return 503;  // substrate momentarily unable; transient by taxonomy
    case serve::ServeError::kCount:
      break;
  }
  return 500;
}

std::string NetMetrics::to_json(std::int64_t active_now) const {
  std::string s = "{";
  auto add = [&s](const char* k, std::int64_t v, bool comma = true) {
    s += std::string("\"") + k + "\":" + std::to_string(v);
    if (comma) s += ",";
  };
  add("accepted", accepted);
  add("active", active_now);
  add("max_active", max_active);
  add("shed", shed);
  add("closed", closed);
  add("requests", requests);
  add("responses_2xx", responses_2xx);
  add("responses_4xx", responses_4xx);
  add("responses_5xx", responses_5xx);
  add("malformed", malformed);
  add("completions", completions);
  add("streams_started", streams_started);
  add("chunks_sent", chunks_sent);
  add("header_timeouts", header_timeouts);
  add("idle_timeouts", idle_timeouts);
  add("write_stall_cancels", write_stall_cancels);
  add("disconnect_cancels", disconnect_cancels);
  add("overflow_closes", overflow_closes);
  add("discard_aborts", discard_aborts);
  add("drain_cancels", drain_cancels);
  add("bytes_in", bytes_in);
  add("bytes_out", bytes_out, /*comma=*/false);
  s += "}";
  return s;
}

HttpServer::HttpServer(serve::Scheduler& sched, ServerConfig cfg)
    : sched_(sched),
      cfg_(cfg),
      wheel_(cfg.wheel_tick_ms, 256) {
  if (!sched_.config().record_events) {
    throw std::invalid_argument(
        "HttpServer: SchedulerConfig::record_events must be true (the "
        "server streams tokens from drain_events())");
  }
  if (cfg_.max_connections < 1) {
    throw std::invalid_argument("HttpServer: max_connections must be >= 1");
  }
}

HttpServer::~HttpServer() {
  for (auto& [key, c] : conns_) {
    if (c->t != nullptr) c->t->close();
  }
}

std::int64_t HttpServer::steady_now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int HttpServer::retry_after_s() const {
  // RetryPolicy hint: one backoff quantum at the observed step rate.
  // Before any step has been timed, assume a conservative 10 ms/step.
  const double step_s = ewma_step_s_ > 0.0 ? ewma_step_s_ : 0.01;
  const double secs =
      std::ceil(static_cast<double>(
                    sched_.config().retry.backoff_base_steps) *
                step_s);
  return static_cast<int>(std::clamp(secs, 1.0, 60.0));
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

void HttpServer::arm_deadline(Conn& c, std::int64_t now_ms) {
  Conn::DeadlineKind want = Conn::DeadlineKind::kNone;
  if (pending_out(c) > 0) {
    want = Conn::DeadlineKind::kWriteStall;
  } else if (c.req_id >= 0) {
    // Waiting on the scheduler with nothing queued: bounded by the
    // request's own deadline_steps and the drain machinery, not by a
    // socket timer.
    want = Conn::DeadlineKind::kNone;
  } else if (c.parser.started()) {
    want = Conn::DeadlineKind::kHeader;
  } else {
    want = Conn::DeadlineKind::kIdle;
  }
  if (want == c.deadline) return;  // keep the armed budget running
  c.deadline = want;
  switch (want) {
    case Conn::DeadlineKind::kNone:
      wheel_.cancel(c.key);
      break;
    case Conn::DeadlineKind::kHeader:
      wheel_.schedule(c.key, now_ms + cfg_.header_timeout_ms);
      break;
    case Conn::DeadlineKind::kIdle:
      wheel_.schedule(c.key, now_ms + cfg_.idle_timeout_ms);
      break;
    case Conn::DeadlineKind::kWriteStall:
      wheel_.schedule(c.key, now_ms + cfg_.write_stall_timeout_ms);
      break;
  }
}

void HttpServer::expire_deadlines(std::int64_t now_ms) {
  expired_scratch_.clear();
  wheel_.expire(now_ms, expired_scratch_);
  for (const std::uint64_t key : expired_scratch_) {
    const auto it = conns_.find(key);
    if (it == conns_.end()) continue;
    Conn& c = *it->second;
    const Conn::DeadlineKind kind = c.deadline;
    c.deadline = Conn::DeadlineKind::kNone;
    switch (kind) {
      case Conn::DeadlineKind::kHeader:
        // The head never completed inside its whole-request budget:
        // classic slow-loris. Answer 408 and drop the connection.
        ++net_metrics_.header_timeouts;
        queue_response(c, 408, "{\"error\":\"header_timeout\"}", now_ms, {},
                       /*close_after=*/true);
        break;
      case Conn::DeadlineKind::kIdle:
        ++net_metrics_.idle_timeouts;
        c.dead = true;
        break;
      case Conn::DeadlineKind::kWriteStall:
        // The client stopped draining its stream. It stalls only
        // itself: cancel the scheduler request (slab back to the pool)
        // and drop the connection — no point writing a goodbye the
        // peer is not reading.
        abort_request(c, &net_metrics_.write_stall_cancels);
        c.dead = true;
        break;
      case Conn::DeadlineKind::kNone:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Output path
// ---------------------------------------------------------------------------

void HttpServer::queue_bytes(Conn& c, std::string_view bytes,
                             std::int64_t now_ms) {
  if (c.dead) return;
  // Compact the flushed prefix once it dominates the buffer.
  if (c.out_off > 4096 && c.out_off * 2 > c.out.size()) {
    c.out.erase(0, c.out_off);
    c.out_off = 0;
  }
  c.out.append(bytes.data(), bytes.size());
  handle_writable(c, now_ms);  // opportunistic immediate flush
  if (!c.dead) {
    arm_deadline(c, now_ms);
    update_poller_interest(c);
  }
}

void HttpServer::queue_response(Conn& c, int status, std::string_view body,
                                std::int64_t now_ms,
                                std::string_view extra_headers,
                                bool close_after) {
  if (status >= 200 && status < 300) ++net_metrics_.responses_2xx;
  else if (status >= 400 && status < 500) ++net_metrics_.responses_4xx;
  else if (status >= 500) ++net_metrics_.responses_5xx;
  const bool keep_alive = !close_after && !c.want_close;
  if (close_after) c.want_close = true;
  queue_bytes(c,
              http_response(status, "application/json", body, keep_alive,
                            extra_headers),
              now_ms);
}

void HttpServer::handle_writable(Conn& c, std::int64_t now_ms) {
  if (c.dead || c.t == nullptr) return;
  bool progressed = false;
  while (pending_out(c) > 0) {
    const std::ptrdiff_t r =
        c.t->write(c.out.data() + c.out_off, pending_out(c));
    if (r > 0) {
      c.out_off += static_cast<std::size_t>(r);
      net_metrics_.bytes_out += r;
      progressed = true;
      continue;
    }
    if (r == Transport::kAgain) break;
    // kError: peer reset under us.
    abort_request(c, &net_metrics_.disconnect_cancels);
    c.dead = true;
    return;
  }
  if (pending_out(c) == 0) {
    c.out.clear();
    c.out_off = 0;
    if (c.want_close) {
      c.dead = true;
      return;
    }
    arm_deadline(c, now_ms);
  } else if (progressed && c.deadline == Conn::DeadlineKind::kWriteStall) {
    // Forward progress re-arms the stall budget.
    c.deadline = Conn::DeadlineKind::kNone;
    arm_deadline(c, now_ms);
  }
  update_poller_interest(c);
}

void HttpServer::update_poller_interest(Conn& c) {
  if (poller_ == nullptr || c.t == nullptr || c.t->fd() < 0 || !c.registered) {
    return;
  }
  const bool want_write = pending_out(c) > 0;
  if (want_write == c.poller_writable) return;
  c.poller_writable = want_write;
  poller_->modify(c.t->fd(), c.key, /*want_read=*/true, want_write);
}

// ---------------------------------------------------------------------------
// Input path
// ---------------------------------------------------------------------------

void HttpServer::handle_readable(Conn& c, std::int64_t now_ms) {
  if (c.dead || c.t == nullptr) return;
  char buf[4096];
  // Bounded sweep per pump: a fire-hose sender cannot starve the loop.
  for (int i = 0; i < 8; ++i) {
    const std::ptrdiff_t r = c.t->read(buf, sizeof(buf));
    if (r > 0) {
      net_metrics_.bytes_in += r;
      c.parser.feed(std::string_view(buf, static_cast<std::size_t>(r)));
      continue;
    }
    if (r == Transport::kAgain) break;
    // EOF or reset. Mid-request disconnects cancel the scheduler work.
    abort_request(c, &net_metrics_.disconnect_cancels);
    c.dead = true;
    return;
  }
  if (c.req_id >= 0) return;  // pipelined bytes parked until terminal
  dispatch(c, now_ms);
}

// ---------------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------------

void HttpServer::dispatch(Conn& c, std::int64_t now_ms) {
  // Loop: a keep-alive reset may reveal a fully-buffered pipelined
  // request; serve it in the same sweep. A closing connection has
  // already said its last word — in particular an errored parser must
  // answer exactly once, not once per pump while the close flushes.
  while (!c.dead && !c.want_close && c.req_id < 0) {
    const HttpParser::Status st = c.parser.status();
    if (st == HttpParser::Status::kNeedMore) {
      arm_deadline(c, now_ms);
      return;
    }
    if (st == HttpParser::Status::kError) {
      ++net_metrics_.malformed;
      queue_response(c, c.parser.error_status(),
                     "{\"error\":\"malformed_request\",\"detail\":" +
                         json_escape(c.parser.error()) + "}",
                     now_ms, {}, /*close_after=*/true);
      return;
    }
    ++net_metrics_.requests;
    const HttpRequest& req = c.parser.request();
    const std::string path = req.path();
    if (path == "/healthz") {
      if (req.method != "GET") {
        queue_response(c, 405, "{\"error\":\"method_not_allowed\"}", now_ms);
      } else if (draining_) {
        queue_response(c, 503, "{\"status\":\"draining\"}", now_ms,
                       "Retry-After: 5\r\n");
      } else {
        queue_response(c, 200, "{\"status\":\"ok\"}", now_ms);
      }
      finish_response(c, now_ms);
      continue;
    }
    if (path == "/metrics") {
      if (req.method != "GET") {
        queue_response(c, 405, "{\"error\":\"method_not_allowed\"}", now_ms);
      } else {
        queue_response(c, 200, metrics_json(), now_ms);
      }
      finish_response(c, now_ms);
      continue;
    }
    if (path == "/v1/completions") {
      if (req.method != "POST") {
        queue_response(c, 405, "{\"error\":\"method_not_allowed\"}", now_ms);
        finish_response(c, now_ms);
        continue;
      }
      dispatch_completion(c, now_ms);
      if (c.req_id >= 0) return;  // streaming/waiting; no reset yet
      continue;
    }
    queue_response(c, 404, "{\"error\":\"not_found\"}", now_ms);
    finish_response(c, now_ms);
  }
}

void HttpServer::dispatch_completion(Conn& c, std::int64_t now_ms) {
  if (draining_) {
    queue_response(c, 503,
                   "{\"error\":\"draining\",\"detail\":\"server is "
                   "shutting down\"}",
                   now_ms,
                   "Retry-After: " + std::to_string(retry_after_s()) + "\r\n",
                   /*close_after=*/true);
    return;
  }
  const HttpRequest& req = c.parser.request();
  const JsonParseResult parsed = json_parse(req.body);
  if (!parsed.ok || !parsed.value.is_object()) {
    queue_response(c, 400,
                   "{\"error\":\"bad_json\",\"detail\":" +
                       json_escape(parsed.ok ? "body must be a JSON object"
                                             : parsed.error) +
                       "}",
                   now_ms);
    finish_response(c, now_ms);
    return;
  }
  const JsonValue* prompt = parsed.value.find("prompt");
  if (prompt == nullptr || !prompt->is_array() || prompt->as_array().empty()) {
    queue_response(c, 400,
                   "{\"error\":\"bad_request\",\"detail\":\"'prompt' must "
                   "be a non-empty array of token ids\"}",
                   now_ms);
    finish_response(c, now_ms);
    return;
  }
  if (prompt->as_array().size() >
      static_cast<std::size_t>(cfg_.max_prompt_tokens)) {
    queue_response(c, 413,
                   "{\"error\":\"prompt_too_long\",\"detail\":\"limit " +
                       std::to_string(cfg_.max_prompt_tokens) + " tokens\"}",
                   now_ms);
    finish_response(c, now_ms);
    return;
  }
  serve::RequestParams params;
  params.prompt.reserve(prompt->as_array().size());
  for (const JsonValue& v : prompt->as_array()) {
    if (!v.is_number()) {
      queue_response(c, 400,
                     "{\"error\":\"bad_request\",\"detail\":\"'prompt' "
                     "entries must be numbers\"}",
                     now_ms);
      finish_response(c, now_ms);
      return;
    }
    params.prompt.push_back(static_cast<int>(v.as_int()));
  }
  params.max_new_tokens = static_cast<int>(parsed.value.get_int(
      "max_new_tokens", cfg_.default_max_new_tokens));
  params.deadline_steps = parsed.value.get_int("deadline_steps", 0);
  params.stream_seed = static_cast<std::uint64_t>(
      parsed.value.get_int("stream_seed", 0));
  if (params.stream_seed == 0 && cfg_.fingerprint_streams) {
    // Derive the noise stream from the prompt head (FNV-1a) so repeat
    // prompts and multi-turn continuations share a stream — the
    // precondition for a KV prefix-cache hit. 0 stays reserved as the
    // "derive from request id" sentinel, so force the top bit.
    std::uint64_t h = 1469598103934665603ull;
    const std::size_t k = std::min(
        params.prompt.size(),
        static_cast<std::size_t>(std::max(cfg_.fingerprint_tokens, 1)));
    for (std::size_t i = 0; i < k; ++i) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
          params.prompt[i]));
      h *= 1099511628211ull;
    }
    params.stream_seed = h | (1ull << 63);
  }
  const bool stream = parsed.value.get_bool("stream", true);

  const std::int64_t id = sched_.submit(std::move(params));
  const serve::RequestRecord rec = sched_.request(id);
  if (rec.state == serve::RequestState::kRejected) {
    // Admission backpressure surfaces here, synchronously: map the
    // structured ServeError onto a status, with a Retry-After hint for
    // the transient codes (the client-side mirror of the RetryPolicy).
    const int status = http_status_for(rec.error);
    std::string extra;
    if (status == 429 || status == 503) {
      extra = "Retry-After: " + std::to_string(retry_after_s()) + "\r\n";
    }
    queue_response(c, status,
                   "{\"error\":" +
                       json_escape(serve::to_string(rec.error)) +
                       ",\"detail\":" + json_escape(rec.error_detail) +
                       ",\"id\":" + std::to_string(id) + "}",
                   now_ms, extra);
    finish_response(c, now_ms);
    return;
  }
  ++net_metrics_.completions;
  c.req_id = id;
  c.streaming = stream;
  c.streamed_tokens = 0;
  req_conn_[id] = c.key;
  if (stream) {
    ++net_metrics_.streams_started;
    ++net_metrics_.responses_2xx;
    queue_bytes(c,
                http_chunked_head(200, "application/json",
                                  c.parser.request().keep_alive) +
                    http_chunk("{\"id\":" + std::to_string(id) + "}\n"),
                now_ms);
  }
  arm_deadline(c, now_ms);
}

void HttpServer::finish_response(Conn& c, std::int64_t now_ms) {
  if (c.dead || c.want_close) return;
  const bool keep_alive = c.parser.request().keep_alive && !draining_;
  if (!keep_alive) {
    c.want_close = true;
    if (pending_out(c) == 0) c.dead = true;
    return;
  }
  c.parser.reset();  // re-parses any pipelined bytes already buffered
  arm_deadline(c, now_ms);
}

// ---------------------------------------------------------------------------
// Scheduler event routing (the streaming hot path)
// ---------------------------------------------------------------------------

void HttpServer::route_events(std::int64_t now_ms) {
  for (const serve::ServeEvent& ev : sched_.drain_events()) {
    const auto it = req_conn_.find(ev.id);
    if (it == req_conn_.end()) continue;  // not ours / already aborted
    const auto cit = conns_.find(it->second);
    if (cit == conns_.end()) {
      req_conn_.erase(it);
      continue;
    }
    Conn& c = *cit->second;
    switch (ev.kind) {
      case serve::ServeEventKind::kToken: {
        if (!c.streaming || c.dead) break;
        std::string payload =
            "{\"token\":" + std::to_string(ev.token);
        if (ev.degraded) payload += ",\"degraded\":true";
        payload += "}\n";
        const std::string chunk = http_chunk(payload);
        if (pending_out(c) + chunk.size() > cfg_.max_write_buffer_bytes) {
          // Bounded buffer: the slow client pays, nobody else queues
          // behind it. The stream is unfinishable — cancel and drop.
          ++net_metrics_.overflow_closes;
          abort_request(c, nullptr);
          c.dead = true;
          break;
        }
        ++net_metrics_.chunks_sent;
        ++c.streamed_tokens;
        queue_bytes(c, chunk, now_ms);
        break;
      }
      case serve::ServeEventKind::kDiscard: {
        // A transient failure requeued the request and discarded its
        // partial output. Chunks already on the wire cannot be unsent:
        // if anything was streamed, abort the stream (cancel; the
        // terminal event closes it out). A stream with nothing sent
        // yet, or a non-streaming request, just waits for the retry.
        if (c.streaming && c.streamed_tokens > 0) {
          ++net_metrics_.discard_aborts;
          sched_.cancel(ev.id);
        }
        break;
      }
      case serve::ServeEventKind::kTerminal: {
        if (c.streaming) {
          std::string payload = "{\"done\":true,\"state\":" +
                                json_escape(serve::to_string(ev.state));
          if (ev.error != serve::ServeError::kNone) {
            payload +=
                ",\"error\":" + json_escape(serve::to_string(ev.error));
          }
          payload += ",\"generated\":" +
                     std::to_string(c.streamed_tokens) + "}\n";
          queue_bytes(c, http_chunk(payload) +
                             std::string(http_last_chunk()),
                      now_ms);
        } else {
          const serve::RequestRecord rec = sched_.request(ev.id);
          std::string body = "{\"id\":" + std::to_string(ev.id) +
                             ",\"state\":" +
                             json_escape(serve::to_string(rec.state)) +
                             ",\"tokens\":[";
          for (std::size_t i = 0; i < rec.tokens.size(); ++i) {
            if (i > 0) body += ",";
            body += std::to_string(rec.tokens[i]);
          }
          body += "],\"degraded_tokens\":" +
                  std::to_string(rec.degraded_tokens);
          if (rec.error != serve::ServeError::kNone) {
            body += ",\"error\":" + json_escape(serve::to_string(rec.error)) +
                    ",\"detail\":" + json_escape(rec.error_detail);
          }
          body += "}";
          // Admission-time rejects (pool pressure after retries, expiry)
          // reach a non-streaming client as a proper error status.
          const int status = rec.state == serve::RequestState::kRejected
                                 ? http_status_for(rec.error)
                                 : 200;
          std::string extra;
          if (status == 429 || status == 503) {
            extra = "Retry-After: " + std::to_string(retry_after_s()) +
                    "\r\n";
          }
          queue_response(c, status, body, now_ms, extra);
        }
        req_conn_.erase(it);
        c.req_id = -1;
        c.streaming = false;
        c.streamed_tokens = 0;
        finish_response(c, now_ms);
        if (!c.dead && c.req_id < 0 && !c.want_close) {
          dispatch(c, now_ms);  // serve a parked pipelined request
        }
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void HttpServer::abort_request(Conn& c, std::int64_t* counter) {
  if (c.req_id < 0) return;
  sched_.cancel(c.req_id);
  req_conn_.erase(c.req_id);
  c.req_id = -1;
  c.streaming = false;
  c.streamed_tokens = 0;
  if (counter != nullptr) ++(*counter);
}

void HttpServer::close_conn(Conn& c) {
  wheel_.cancel(c.key);
  if (c.t != nullptr) {
    if (poller_ != nullptr && c.registered && c.t->fd() >= 0) {
      poller_->remove(c.t->fd());
    }
    c.t->close();
  }
  ++net_metrics_.closed;
}

void HttpServer::reap_dead() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->second->dead) {
      Conn& c = *it->second;
      // A dead connection with an un-aborted request (e.g. killed by
      // the drain deadline) must not leak its scheduler entry.
      abort_request(c, nullptr);
      close_conn(c);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

std::uint64_t HttpServer::adopt(std::unique_ptr<Transport> t,
                                std::int64_t now_ms) {
  if (static_cast<int>(conns_.size()) >= cfg_.max_connections) {
    // Listen-queue shedding: one canned 503, best-effort, then close.
    // Drain whatever the client already sent first — closing a TCP
    // socket with unread inbound bytes raises RST, which would destroy
    // the 503 before the peer can read it.
    ++net_metrics_.shed;
    char sink[1024];
    while (t->read(sink, sizeof(sink)) > 0) {
    }
    const std::string resp = http_response(
        503, "application/json", kShedBody, /*keep_alive=*/false,
        "Retry-After: " + std::to_string(retry_after_s()) + "\r\n");
    t->write(resp.data(), resp.size());
    t->close();
    return 0;
  }
  auto conn = std::make_unique<Conn>();
  Conn& c = *conn;
  c.key = next_key_++;
  c.t = std::move(t);
  c.parser = HttpParser(HttpLimits{cfg_.max_header_bytes, cfg_.max_body_bytes});
  ++net_metrics_.accepted;
  conns_.emplace(c.key, std::move(conn));
  net_metrics_.max_active = std::max(
      net_metrics_.max_active, static_cast<std::int64_t>(conns_.size()));
  if (poller_ != nullptr && c.t->fd() >= 0) {
    poller_->add(c.t->fd(), c.key, /*want_read=*/true, /*want_write=*/false);
    c.registered = true;
  }
  arm_deadline(c, now_ms);
  return c.key;
}

void HttpServer::accept_pending(std::int64_t now_ms) {
  if (listener_ == nullptr || draining_) return;
  while (true) {
    std::unique_ptr<TcpTransport> t = listener_->accept();
    if (t == nullptr) break;
    adopt(std::move(t), now_ms);
  }
}

void HttpServer::step_scheduler_once() {
  if (!cfg_.step_scheduler || sched_.in_flight() == 0) return;
  const auto t0 = std::chrono::steady_clock::now();
  sched_.step();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ewma_step_s_ = ewma_step_s_ > 0.0 ? 0.9 * ewma_step_s_ + 0.1 * dt : dt;
}

void HttpServer::request_shutdown(std::int64_t now_ms) {
  if (draining_) return;
  draining_ = true;
  drain_deadline_ms_ = now_ms + cfg_.drain_timeout_ms;
  if (listener_ != nullptr) listener_->close();
  // Idle keep-alive connections have nothing left to wait for.
  for (auto& [key, c] : conns_) {
    if (c->req_id < 0 && pending_out(*c) == 0 && !c->parser.started()) {
      c->dead = true;
    } else if (c->req_id < 0) {
      c->want_close = true;
    }
  }
  reap_dead();
}

bool HttpServer::drained() const {
  return draining_ && conns_.empty() && req_conn_.empty();
}

bool HttpServer::pump(std::int64_t now_ms) {
  accept_pending(now_ms);
  // I/O sweep. Sim transports have no readiness source, so every
  // connection gets a nonblocking read/write attempt; kAgain is cheap.
  for (auto& [key, c] : conns_) {
    if (!c->dead) handle_readable(*c, now_ms);
    if (!c->dead && pending_out(*c) > 0) handle_writable(*c, now_ms);
  }
  expire_deadlines(now_ms);
  step_scheduler_once();
  route_events(now_ms);
  if (draining_ && drain_deadline_ms_ >= 0 && now_ms >= drain_deadline_ms_) {
    for (auto& [key, c] : conns_) {
      if (c->req_id >= 0) abort_request(*c, &net_metrics_.drain_cancels);
      c->dead = true;
    }
  }
  reap_dead();
  return !conns_.empty() || !req_conn_.empty() ||
         (cfg_.step_scheduler && sched_.in_flight() > 0);
}

void HttpServer::listen() {
  if (listener_ != nullptr) return;
  listener_ =
      std::make_unique<TcpListener>(cfg_.port, cfg_.listen_backlog);
}

int HttpServer::port() const {
  return listener_ != nullptr ? listener_->port() : 0;
}

int HttpServer::run() {
  listen();
  poller_ = std::make_unique<Poller>();
  poller_->add(listener_->fd(), kListenerKey, /*want_read=*/true,
               /*want_write=*/false);
  if (shutdown_wake_fd() >= 0) {
    poller_->add(shutdown_wake_fd(), kWakeKey, /*want_read=*/true,
                 /*want_write=*/false);
  }
  std::vector<Poller::Event> events;
  while (true) {
    std::int64_t now = steady_now_ms();
    if (shutdown_requested() && !draining_) request_shutdown(now);
    if (shutdown_signal_count() >= 2) {
      // The operator insisted: abandon the drain.
      for (auto& [key, c] : conns_) {
        abort_request(*c, &net_metrics_.drain_cancels);
        c->dead = true;
      }
      reap_dead();
      poller_.reset();
      return 1;
    }
    if (drained()) {
      poller_.reset();
      return 0;
    }
    int timeout_ms = 100;  // upper bound; also the shutdown-flag poll rate
    if (cfg_.step_scheduler && sched_.in_flight() > 0) {
      timeout_ms = 0;  // decode work pending: don't sleep on the poller
    } else {
      const std::int64_t next = wheel_.next_deadline();
      if (next >= 0) {
        timeout_ms = static_cast<int>(
            std::clamp<std::int64_t>(next - now, 0, 100));
      }
      if (draining_ && drain_deadline_ms_ >= 0) {
        timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
            drain_deadline_ms_ - now, 0, timeout_ms));
      }
    }
    events.clear();
    poller_->wait(events, timeout_ms);
    now = steady_now_ms();
    for (const Poller::Event& ev : events) {
      if (ev.key == kListenerKey) {
        accept_pending(now);
        continue;
      }
      if (ev.key == kWakeKey) {
        drain_wake_fd();  // flag handled at the top of the loop
        continue;
      }
      const auto it = conns_.find(ev.key);
      if (it == conns_.end()) continue;
      Conn& c = *it->second;
      if (ev.error && !ev.readable) {
        abort_request(c, &net_metrics_.disconnect_cancels);
        c.dead = true;
        continue;
      }
      if (ev.readable) handle_readable(c, now);
      if (ev.writable && !c.dead) handle_writable(c, now);
    }
    expire_deadlines(now);
    step_scheduler_once();
    route_events(now);
    if (draining_ && drain_deadline_ms_ >= 0 && now >= drain_deadline_ms_) {
      for (auto& [key, c] : conns_) {
        if (c->req_id >= 0) abort_request(*c, &net_metrics_.drain_cancels);
        c->dead = true;
      }
    }
    reap_dead();
  }
}

std::string HttpServer::metrics_json() const {
  return "{\"serve\":" + sched_.metrics().to_json() + ",\"net\":" +
         net_metrics_.to_json(static_cast<std::int64_t>(conns_.size())) + "}";
}

}  // namespace nora::net
