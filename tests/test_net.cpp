// Network front-end tests: JSON parser, incremental HTTP parser,
// timeout wheel, ServeError->HTTP mapping, and the full connection
// state machine driven deterministically over SimTransport pipes with a
// virtual clock — timeouts, backpressure, disconnects, shedding and
// graceful drain, all without a single real socket or sleep.
#include <gtest/gtest.h>

#include <csignal>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "cim/tile_config.hpp"
#include "net/http.hpp"
#include "net/json.hpp"
#include "net/poller.hpp"
#include "net/server.hpp"
#include "net/signals.hpp"
#include "net/timeout_wheel.hpp"
#include "net/transport.hpp"
#include "nn/transformer.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "util/thread_pool.hpp"

namespace nora::net {
namespace {

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers) {
  const JsonParseResult r = json_parse(
      " {\"a\": 1, \"b\": [true, false, null, -2.5e3], \"c\": {\"d\":\"x\"}} ");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.value.is_object());
  EXPECT_EQ(r.value.get_int("a", -1), 1);
  const JsonValue* b = r.value.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->as_array().size(), 4u);
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_TRUE(b->as_array()[2].is_null());
  EXPECT_DOUBLE_EQ(b->as_array()[3].as_double(), -2500.0);
  const JsonValue* c = r.value.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->get_string("d", ""), "x");
}

TEST(Json, ParsesEscapes) {
  const JsonParseResult r =
      json_parse("{\"s\":\"a\\n\\t\\\"\\\\b\\u0041\"}");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.get_string("s", ""), "a\n\t\"\\bA");
}

TEST(Json, RejectsMalformed) {
  const char* bad[] = {
      "{\"a\":1,}",          // trailing comma
      "{\"a\":1} x",         // trailing content
      "{\"a\":1,\"a\":2}",   // duplicate key
      "{\"a\":NaN}",         // NaN is not JSON
      "{\"a\":Infinity}",    // neither is Infinity
      "{\"a\":01}",          // leading zero
      "{\"a\":\"\x01\"}",    // raw control char in string
      "{\"a\":\"\\q\"}",     // bad escape
      "{\"a\":}",            // missing value
      "[1 2]",               // missing comma
      "\"unterminated",      // unterminated string
  };
  for (const char* s : bad) {
    const JsonParseResult r = json_parse(s);
    EXPECT_FALSE(r.ok) << "should reject: " << s;
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(Json, RejectsExcessiveDepth) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(json_parse(deep, /*max_depth=*/64).ok);
  EXPECT_TRUE(json_parse(deep, /*max_depth=*/128).ok);
}

TEST(Json, EscapeRoundTrips) {
  const std::string raw = "he said \"hi\"\n\ttab\\slash\x01";
  const JsonParseResult r = json_parse("{\"k\":" + json_escape(raw) + "}");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.get_string("k", ""), raw);
}

// --- Metrics::to_json well-formedness (the JSON checker satellite) ----

TEST(Json, EmptyMetricsJsonIsWellFormed) {
  const serve::Metrics m;
  const std::string js = m.to_json();
  const JsonParseResult r = json_parse(js);
  ASSERT_TRUE(r.ok) << r.error << "\n" << js;
  EXPECT_TRUE(r.value.is_object());
  EXPECT_EQ(r.value.get_int("submitted", -1), 0);
}

TEST(Json, MetricsJsonWithPerCodeRejectionsIsWellFormed) {
  serve::Metrics m;
  m.submitted = 7;
  m.rejected = 3;
  m.rejected_by_code[static_cast<std::size_t>(
      serve::ServeError::kQueueFull)] = 2;
  m.rejected_by_code[static_cast<std::size_t>(
      serve::ServeError::kEmptyPrompt)] = 1;
  m.ttft_s = {0.5, 0.25};
  const std::string js = m.to_json();
  const JsonParseResult r = json_parse(js);
  ASSERT_TRUE(r.ok) << r.error << "\n" << js;
  const JsonValue* by_code = r.value.find("rejected_by_code");
  ASSERT_NE(by_code, nullptr);
  ASSERT_TRUE(by_code->is_object());
  EXPECT_EQ(by_code->get_int("queue_full", -1), 2);
  EXPECT_EQ(by_code->get_int("empty_prompt", -1), 1);
}

TEST(Json, MetricsJsonGuardsNonFiniteValues) {
  serve::Metrics m;
  m.generated_tokens = 100;
  m.wall_s = 0.0;  // tokens_per_s() guards this internally...
  m.occupancy_sum = std::numeric_limits<double>::quiet_NaN();
  m.busy_steps = 1;  // ...but mean_occupancy() is now NaN
  const std::string js = m.to_json();
  const JsonParseResult r = json_parse(js);
  ASSERT_TRUE(r.ok) << "NaN must serialize as null, got: " << js;
  const JsonValue* v = r.value.find("mean_occupancy");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->is_null());
}

// ---------------------------------------------------------------------
// HTTP parser
// ---------------------------------------------------------------------

TEST(HttpParser, ParsesSimpleGet) {
  HttpParser p;
  EXPECT_FALSE(p.started());
  const auto st =
      p.feed("GET /healthz?x=1 HTTP/1.1\r\nHost: a\r\n\r\n");
  ASSERT_EQ(st, HttpParser::Status::kComplete);
  EXPECT_TRUE(p.started());
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().target, "/healthz?x=1");
  EXPECT_EQ(p.request().path(), "/healthz");
  EXPECT_TRUE(p.request().keep_alive);  // HTTP/1.1 default
  ASSERT_NE(p.request().header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*p.request().header("HOST"), "a");
}

TEST(HttpParser, ParsesBodyAndSingleByteFeeds) {
  const std::string req =
      "POST /v1/completions HTTP/1.1\r\nHost: a\r\n"
      "Content-Length: 11\r\n\r\nhello world";
  HttpParser p;
  HttpParser::Status st = HttpParser::Status::kNeedMore;
  for (const char ch : req) st = p.feed(std::string_view(&ch, 1));
  ASSERT_EQ(st, HttpParser::Status::kComplete);
  EXPECT_EQ(p.request().body, "hello world");
}

TEST(HttpParser, PipelinedRequestsSurviveReset) {
  HttpParser p;
  const auto st = p.feed(
      "GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(st, HttpParser::Status::kComplete);
  EXPECT_EQ(p.request().path(), "/a");
  ASSERT_EQ(p.reset(), HttpParser::Status::kComplete);
  EXPECT_EQ(p.request().path(), "/b");
  EXPECT_EQ(p.reset(), HttpParser::Status::kNeedMore);
}

TEST(HttpParser, ConnectionSemantics) {
  {
    HttpParser p;
    p.feed("GET / HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n");
    EXPECT_FALSE(p.request().keep_alive);
  }
  {
    HttpParser p;
    p.feed("GET / HTTP/1.0\r\nHost: a\r\n\r\n");
    EXPECT_FALSE(p.request().keep_alive);  // 1.0 default close
  }
  {
    HttpParser p;
    p.feed("GET / HTTP/1.0\r\nHost: a\r\nConnection: keep-alive\r\n\r\n");
    EXPECT_TRUE(p.request().keep_alive);
  }
}

TEST(HttpParser, RejectsProtocolViolations) {
  struct Case {
    const char* req;
    int status;
  };
  const Case cases[] = {
      {"GARBAGE\r\n\r\n", 400},
      {"GET  / HTTP/1.1\r\n\r\n", 400},                        // double space
      {"GET http://e/ HTTP/1.1\r\nHost: a\r\n\r\n", 400},      // absolute-form
      {"GET / HTTP/2.0\r\nHost: a\r\n\r\n", 505},
      {"GET / HTTP/1.1\r\nHost: a\r\nX: 1\r\n 2\r\n\r\n", 400},  // obs-fold
      {"GET / HTTP/1.1\r\nHost : a\r\n\r\n", 400},  // ws before colon
      {"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
       400},
      {"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
  };
  for (const Case& c : cases) {
    HttpParser p;
    EXPECT_EQ(p.feed(c.req), HttpParser::Status::kError) << c.req;
    EXPECT_EQ(p.error_status(), c.status) << c.req;
  }
}

TEST(HttpParser, EnforcesSizeLimits) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  limits.max_body_bytes = 8;
  {
    HttpParser p(limits);
    const std::string big_header =
        "GET / HTTP/1.1\r\nX-Pad: " + std::string(100, 'a') + "\r\n\r\n";
    EXPECT_EQ(p.feed(big_header), HttpParser::Status::kError);
    EXPECT_EQ(p.error_status(), 431);
  }
  {
    HttpParser p(limits);
    EXPECT_EQ(p.feed("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n"),
              HttpParser::Status::kError);
    EXPECT_EQ(p.error_status(), 413);
  }
}

TEST(HttpParser, ResponseBuildersProduceValidFraming) {
  const std::string resp =
      http_response(200, "application/json", "{\"a\":1}", true);
  EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(resp.find("\r\n\r\n{\"a\":1}"), std::string::npos);

  EXPECT_EQ(http_chunk("abc"), "3\r\nabc\r\n");
  EXPECT_EQ(http_chunk(std::string(26, 'x')),
            "1a\r\n" + std::string(26, 'x') + "\r\n");
  EXPECT_EQ(http_last_chunk(), "0\r\n\r\n");
  const std::string head = http_chunked_head(200, "application/json", false);
  EXPECT_NE(head.find("Transfer-Encoding: chunked\r\n"), std::string::npos);
  EXPECT_NE(head.find("Connection: close\r\n"), std::string::npos);
}

// ---------------------------------------------------------------------
// Timeout wheel
// ---------------------------------------------------------------------

TEST(TimeoutWheel, FiresJustDueEntriesWithoutAFullRotation) {
  TimeoutWheel w(/*tick_ms=*/50, /*slots=*/8);
  std::vector<std::uint64_t> fired;
  w.expire(0, fired);
  // Deadline rounds UP into the next slot; it must still fire at the
  // first expire() at/after the deadline, not one rotation later.
  w.schedule(1, 60);
  w.expire(55, fired);
  EXPECT_TRUE(fired.empty());  // not due yet
  w.expire(60, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
  fired.clear();
  w.expire(500, fired);
  EXPECT_TRUE(fired.empty());  // fired once, not again
}

TEST(TimeoutWheel, CancelAndRearm) {
  TimeoutWheel w(10, 16);
  std::vector<std::uint64_t> fired;
  w.expire(0, fired);
  w.schedule(1, 50);
  w.schedule(2, 50);
  w.cancel(1);
  w.schedule(2, 200);  // re-arm replaces the old deadline
  w.expire(100, fired);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(w.next_deadline(), 200);
  w.expire(200, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2u);
  EXPECT_EQ(w.next_deadline(), -1);
}

TEST(TimeoutWheel, SurvivesLongClockJumps) {
  TimeoutWheel w(10, 4);  // tiny wheel: jumps cross many rotations
  std::vector<std::uint64_t> fired;
  w.expire(0, fired);
  w.schedule(7, 25);
  w.expire(10000, fired);  // clock leaps far past everything
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 7u);
}

// ---------------------------------------------------------------------
// ServeError -> HTTP status
// ---------------------------------------------------------------------

TEST(ServeErrorMapping, CoversEveryCode) {
  using serve::ServeError;
  EXPECT_EQ(http_status_for(ServeError::kNone), 200);
  EXPECT_EQ(http_status_for(ServeError::kEmptyPrompt), 400);
  EXPECT_EQ(http_status_for(ServeError::kMaxTokensNonPositive), 400);
  EXPECT_EQ(http_status_for(ServeError::kDeadlineNegative), 400);
  EXPECT_EQ(http_status_for(ServeError::kPromptTooLong), 400);
  EXPECT_EQ(http_status_for(ServeError::kFootprintOverBudget), 413);
  EXPECT_EQ(http_status_for(ServeError::kQueueFull), 429);
  EXPECT_EQ(http_status_for(ServeError::kMaintenance), 503);
  EXPECT_EQ(http_status_for(ServeError::kPoolExhausted), 503);
  EXPECT_EQ(http_status_for(ServeError::kRetryBudgetExhausted), 503);
  // Every enumerator maps somewhere sane (4xx/5xx for errors).
  for (std::size_t i = 1;
       i < static_cast<std::size_t>(ServeError::kCount); ++i) {
    const int s = http_status_for(static_cast<ServeError>(i));
    EXPECT_GE(s, 400);
    EXPECT_LT(s, 600);
  }
}

// ---------------------------------------------------------------------
// Poller (real fds)
// ---------------------------------------------------------------------

TEST(Poller, EpollBackend) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  {
    Poller poller;
    poller.add(fds[0], /*key=*/42, /*want_read=*/true, /*want_write=*/false);
    std::vector<Poller::Event> events;
    poller.wait(events, 0);
    EXPECT_TRUE(events.empty());
    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    poller.wait(events, 1000);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].key, 42u);
    EXPECT_TRUE(events[0].readable);
    poller.remove(fds[0]);
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------
// SimTransport
// ---------------------------------------------------------------------

TEST(SimTransport, BoundedPipeBackpressureAndClose) {
  auto [a, b] = make_sim_pair(/*capacity=*/4);
  EXPECT_EQ(a->write("abcdef", 6), 4);        // capacity-bounded
  EXPECT_EQ(a->write("x", 1), Transport::kAgain);
  char buf[8];
  EXPECT_EQ(b->read(buf, 2), 2);
  EXPECT_EQ(a->write("ef", 2), 2);            // space freed
  EXPECT_EQ(b->read(buf, 8), 4);
  EXPECT_EQ(std::string("cdef"), std::string(buf, 4));
  EXPECT_EQ(b->read(buf, 8), Transport::kAgain);
  a->close();
  EXPECT_EQ(b->read(buf, 8), Transport::kEof);
  EXPECT_EQ(b->write("y", 1), Transport::kError);  // EPIPE analog
  EXPECT_TRUE(b->peer_closed());
}

// ---------------------------------------------------------------------
// HttpServer over sim transports (virtual clock throughout)
// ---------------------------------------------------------------------

nn::TransformerLM make_tiny_model() {
  nn::TransformerConfig arch;
  arch.vocab_size = 30;
  arch.d_model = 24;
  arch.n_layers = 2;
  arch.n_heads = 3;
  arch.d_ff = 48;
  arch.max_seq = 64;
  arch.seed = 77;
  nn::TransformerLM model(arch);
  cim::TileConfig tiles = cim::TileConfig::paper_table2();
  tiles.tile_rows = 16;
  tiles.tile_cols = 12;
  tiles.in_noise = 0.02f;
  tiles.abft_checksum = true;
  tiles.n_threads = 1;
  std::uint64_t seed = 900;
  for (auto* lin : model.linear_layers()) {
    lin->to_analog(tiles, {}, seed++);
  }
  return model;
}

struct Harness {
  nn::TransformerLM model;
  std::unique_ptr<serve::Scheduler> sched;
  std::unique_ptr<HttpServer> server;
  std::int64_t now = 0;

  explicit Harness(ServerConfig ncfg = {},
                   serve::SchedulerConfig scfg = {})
      : model(make_tiny_model()) {
    util::ThreadPool::global().resize(1);
    scfg.record_events = true;
    sched = std::make_unique<serve::Scheduler>(model, scfg);
    server = std::make_unique<HttpServer>(*sched, ncfg);
  }

  /// Advance virtual time in `tick` ms pumps (the server steps the
  /// scheduler itself unless the config says otherwise).
  void advance(std::int64_t ms, std::int64_t tick = 10) {
    const std::int64_t until = now + ms;
    while (now < until) {
      now = std::min(now + tick, until);
      server->pump(now);
    }
  }

  std::unique_ptr<SimTransport> connect(std::size_t capacity = 4096) {
    auto [server_end, client_end] = make_sim_pair(capacity);
    server->adopt(std::move(server_end), now);
    return std::move(client_end);
  }
};

void send_all(Harness& h, SimTransport& t, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const std::ptrdiff_t w = t.write(data.data() + off, data.size() - off);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
    } else {
      ASSERT_EQ(w, Transport::kAgain);
    }
    h.advance(10);
  }
}

std::string read_avail(SimTransport& t) {
  std::string out;
  char buf[512];
  while (true) {
    const std::ptrdiff_t r = t.read(buf, sizeof(buf));
    if (r <= 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  return out;
}

/// Drive until the peer closes (response complete) or `max_ms` passes.
std::string read_response(Harness& h, SimTransport& t,
                          std::int64_t max_ms = 5000) {
  std::string out;
  const std::int64_t until = h.now + max_ms;
  while (h.now < until) {
    out += read_avail(t);
    if (t.peer_closed() && t.readable() == 0) break;
    h.advance(10);
  }
  out += read_avail(t);
  return out;
}

std::string completion_req(const std::string& prompt_csv, int max_new,
                           bool stream, bool close = true) {
  const std::string body = "{\"prompt\":[" + prompt_csv +
                           "],\"max_new_tokens\":" + std::to_string(max_new) +
                           ",\"stream\":" + (stream ? "true" : "false") + "}";
  return "POST /v1/completions HTTP/1.1\r\nHost: t\r\n" +
         std::string(close ? "Connection: close\r\n" : "") +
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(HttpServer, RequiresEventRecording) {
  nn::TransformerLM model = make_tiny_model();
  serve::SchedulerConfig scfg;  // record_events left false
  serve::Scheduler sched(model, scfg);
  EXPECT_THROW(HttpServer(sched, ServerConfig{}), std::invalid_argument);
}

TEST(HttpServer, HealthzMetricsAndErrors) {
  Harness h;
  {
    auto c = h.connect();
    send_all(h, *c,
             "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    const std::string resp = read_response(h, *c);
    EXPECT_EQ(resp.rfind("HTTP/1.1 200", 0), 0u) << resp;
    EXPECT_NE(resp.find("\"status\":\"ok\""), std::string::npos);
  }
  {
    auto c = h.connect();
    send_all(h, *c,
             "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    const std::string resp = read_response(h, *c);
    EXPECT_EQ(resp.rfind("HTTP/1.1 200", 0), 0u);
    // The whole /metrics body must be valid JSON.
    const std::size_t body_at = resp.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const JsonParseResult r = json_parse(resp.substr(body_at + 4));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_NE(r.value.find("serve"), nullptr);
    EXPECT_NE(r.value.find("net"), nullptr);
  }
  {
    auto c = h.connect();
    send_all(h, *c,
             "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    EXPECT_EQ(read_response(h, *c).rfind("HTTP/1.1 404", 0), 0u);
  }
  {
    auto c = h.connect();
    send_all(h, *c,
             "POST /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
             "Content-Length: 0\r\n\r\n");
    EXPECT_EQ(read_response(h, *c).rfind("HTTP/1.1 405", 0), 0u);
  }
  {
    auto c = h.connect();
    send_all(h, *c, "NONSENSE\r\n\r\n");
    EXPECT_EQ(read_response(h, *c).rfind("HTTP/1.1 400", 0), 0u);
    EXPECT_EQ(h.server->net_metrics().malformed, 1);
  }
}

TEST(HttpServer, StreamingCompletionMatchesSchedulerRecord) {
  Harness h;
  auto c = h.connect();
  send_all(h, *c, completion_req("3,1,4,1,5", 6, /*stream=*/true));
  const std::string resp = read_response(h, *c);
  EXPECT_EQ(resp.rfind("HTTP/1.1 200", 0), 0u) << resp;
  EXPECT_NE(resp.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(resp.find("\"done\":true"), std::string::npos);
  EXPECT_NE(resp.find("\"state\":\"finished\""), std::string::npos);

  // Token chunks must match the scheduler's own record, in order.
  const serve::RequestRecord rec = h.sched->request(0);
  ASSERT_EQ(rec.tokens.size(), 6u);
  std::size_t pos = 0;
  for (const int tok : rec.tokens) {
    const std::string marker = "{\"token\":" + std::to_string(tok);
    pos = resp.find(marker, pos);
    ASSERT_NE(pos, std::string::npos) << "missing/misordered " << marker;
    ++pos;
  }
  EXPECT_EQ(h.server->net_metrics().chunks_sent, 6);
  EXPECT_EQ(h.server->connections(), 0u);  // Connection: close honored
}

TEST(HttpServer, UnaryCompletionReturnsFullBody) {
  Harness h;
  auto c = h.connect();
  send_all(h, *c, completion_req("2,7,1", 4, /*stream=*/false));
  const std::string resp = read_response(h, *c);
  EXPECT_EQ(resp.rfind("HTTP/1.1 200", 0), 0u) << resp;
  const std::size_t body_at = resp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const JsonParseResult r = json_parse(resp.substr(body_at + 4));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.get_string("state", ""), "finished");
  const JsonValue* tokens = r.value.find("tokens");
  ASSERT_NE(tokens, nullptr);
  ASSERT_TRUE(tokens->is_array());
  const serve::RequestRecord rec = h.sched->request(0);
  ASSERT_EQ(tokens->as_array().size(), rec.tokens.size());
  for (std::size_t i = 0; i < rec.tokens.size(); ++i) {
    EXPECT_EQ(tokens->as_array()[i].as_int(), rec.tokens[i]);
  }
}

TEST(HttpServer, KeepAliveServesSequentialRequests) {
  Harness h;
  auto c = h.connect();
  send_all(h, *c, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  h.advance(50);
  std::string first = read_avail(*c);
  EXPECT_EQ(first.rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_EQ(h.server->connections(), 1u);  // still open
  send_all(h, *c,
           "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  const std::string second = read_response(h, *c);
  EXPECT_EQ(second.rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_EQ(h.server->net_metrics().requests, 2);
}

TEST(HttpServer, RejectsBadCompletionRequests) {
  Harness h;
  {
    auto c = h.connect();
    const std::string body = "{not json";
    send_all(h, *c,
             "POST /v1/completions HTTP/1.1\r\nHost: t\r\n"
             "Connection: close\r\nContent-Length: " +
                 std::to_string(body.size()) + "\r\n\r\n" + body);
    const std::string resp = read_response(h, *c);
    EXPECT_EQ(resp.rfind("HTTP/1.1 400", 0), 0u);
    EXPECT_NE(resp.find("bad_json"), std::string::npos);
  }
  {
    auto c = h.connect();
    send_all(h, *c, completion_req("", 4, true));  // empty prompt
    EXPECT_EQ(read_response(h, *c).rfind("HTTP/1.1 400", 0), 0u);
  }
  {
    ServerConfig ncfg;
    ncfg.max_prompt_tokens = 4;
    Harness h2(ncfg);
    auto c = h2.connect();
    send_all(h2, *c, completion_req("1,2,3,4,5,6", 4, true));
    EXPECT_EQ(read_response(h2, *c).rfind("HTTP/1.1 413", 0), 0u);
  }
}

TEST(HttpServer, QueueFullMapsTo429WithRetryAfter) {
  ServerConfig ncfg;
  ncfg.step_scheduler = false;  // keep the queue full: nobody admits
  serve::SchedulerConfig scfg;
  scfg.queue_capacity = 1;
  Harness h(ncfg, scfg);
  // Fill the queue directly (the scheduler never steps here).
  serve::RequestParams p;
  p.prompt = {1, 2};
  h.sched->submit(std::move(p));
  auto c = h.connect();
  send_all(h, *c, completion_req("3,4", 4, true));
  const std::string resp = read_response(h, *c);
  EXPECT_EQ(resp.rfind("HTTP/1.1 429", 0), 0u) << resp;
  EXPECT_NE(resp.find("Retry-After: "), std::string::npos);
  EXPECT_NE(resp.find("queue_full"), std::string::npos);
}

TEST(HttpServer, HeaderTimeoutKillsSlowLoris) {
  ServerConfig ncfg;
  ncfg.header_timeout_ms = 200;
  Harness h(ncfg);
  auto c = h.connect();
  send_all(h, *c, "GET /healthz HT");  // header never completes
  h.advance(500);
  const std::string resp = read_avail(*c);
  EXPECT_EQ(resp.rfind("HTTP/1.1 408", 0), 0u) << resp;
  EXPECT_TRUE(c->peer_closed());
  EXPECT_EQ(h.server->net_metrics().header_timeouts, 1);
  EXPECT_EQ(h.server->connections(), 0u);
}

TEST(HttpServer, IdleTimeoutReapsSilentConnections) {
  ServerConfig ncfg;
  ncfg.idle_timeout_ms = 300;
  Harness h(ncfg);
  auto c = h.connect();
  h.advance(250);
  EXPECT_EQ(h.server->connections(), 1u);  // not idle-timed-out yet
  h.advance(200);
  EXPECT_TRUE(c->peer_closed());
  EXPECT_EQ(h.server->net_metrics().idle_timeouts, 1);
  EXPECT_EQ(h.server->connections(), 0u);
}

TEST(HttpServer, WriteStallCancelsSchedulerRequest) {
  ServerConfig ncfg;
  ncfg.write_stall_timeout_ms = 300;
  Harness h(ncfg);
  auto c = h.connect(/*capacity=*/64);  // tiny pipe, and we never read
  // Long generation (one token per 10ms pump): the 300ms stall deadline
  // must fire mid-stream, well before the request could finish.
  send_all(h, *c, completion_req("1,2,3", 48, /*stream=*/true));
  h.advance(2000);
  EXPECT_EQ(h.server->net_metrics().write_stall_cancels, 1);
  EXPECT_EQ(h.server->connections(), 0u);
  const serve::RequestRecord rec = h.sched->request(0);
  EXPECT_EQ(rec.state, serve::RequestState::kCancelled);
  // Cancellation released the slab: nothing may leak.
  const serve::AuditSnapshot snap = h.sched->audit_snapshot();
  EXPECT_EQ(snap.pool_live, 0);
  EXPECT_EQ(snap.pool_acquires, snap.pool_releases);
}

TEST(HttpServer, WriteBufferOverflowCancelsStream) {
  ServerConfig ncfg;
  ncfg.write_stall_timeout_ms = 1000000;  // stall timer out of the picture
  ncfg.max_write_buffer_bytes = 64;
  Harness h(ncfg);
  auto c = h.connect(/*capacity=*/16);
  send_all(h, *c, completion_req("1,2,3", 32, /*stream=*/true));
  h.advance(3000);
  EXPECT_EQ(h.server->net_metrics().overflow_closes, 1);
  EXPECT_EQ(h.sched->request(0).state, serve::RequestState::kCancelled);
}

TEST(HttpServer, ClientDisconnectCancelsMidStream) {
  Harness h;
  auto c = h.connect();
  // Small prompt, long generation; disconnect after the first token.
  send_all(h, *c, completion_req("5,6", 32, /*stream=*/true));
  const std::int64_t deadline = h.now + 5000;
  std::string seen;
  while (h.now < deadline && seen.find("{\"token\":") == std::string::npos) {
    seen += read_avail(*c);
    h.advance(10);
  }
  c->close();
  h.advance(500);
  EXPECT_EQ(h.server->net_metrics().disconnect_cancels, 1);
  EXPECT_EQ(h.server->connections(), 0u);
  EXPECT_EQ(h.sched->request(0).state, serve::RequestState::kCancelled);
  const serve::AuditSnapshot snap = h.sched->audit_snapshot();
  EXPECT_EQ(snap.pool_live, 0);
}

TEST(HttpServer, ShedsBeyondConnectionCap) {
  ServerConfig ncfg;
  ncfg.max_connections = 1;
  Harness h(ncfg);
  auto keeper = h.connect();
  auto shed = h.connect();  // over the cap: 503 + close, never adopted
  EXPECT_EQ(h.server->connections(), 1u);
  EXPECT_EQ(h.server->net_metrics().shed, 1);
  const std::string resp = read_avail(*shed);
  EXPECT_EQ(resp.rfind("HTTP/1.1 503", 0), 0u) << resp;
  EXPECT_NE(resp.find("Retry-After: "), std::string::npos);
  EXPECT_TRUE(shed->peer_closed());
}

TEST(HttpServer, GracefulDrainFinishesInFlightStreams) {
  Harness h;
  auto c = h.connect();
  send_all(h, *c, completion_req("1,2,3", 8, /*stream=*/true));
  h.advance(30);  // request submitted, stream under way
  h.server->request_shutdown(h.now);
  EXPECT_TRUE(h.server->draining());

  // New work during the drain is refused with 503 + Retry-After.
  auto late = h.connect();
  send_all(h, *late, completion_req("4,5", 4, /*stream=*/false));
  const std::string refused = read_response(h, *late);
  EXPECT_EQ(refused.rfind("HTTP/1.1 503", 0), 0u) << refused;
  EXPECT_NE(refused.find("Retry-After: "), std::string::npos);

  // The in-flight stream still finishes cleanly.
  const std::string resp = read_response(h, *c);
  EXPECT_NE(resp.find("\"done\":true"), std::string::npos);
  EXPECT_NE(resp.find("\"state\":\"finished\""), std::string::npos);
  h.advance(100);
  EXPECT_TRUE(h.server->drained());
  EXPECT_EQ(h.server->net_metrics().drain_cancels, 0);
}

TEST(HttpServer, DrainDeadlineForceCancelsStragglers) {
  ServerConfig ncfg;
  ncfg.drain_timeout_ms = 300;
  ncfg.step_scheduler = false;  // nobody steps: the request can't finish
  Harness h(ncfg);
  auto c = h.connect();
  send_all(h, *c, completion_req("1,2", 8, /*stream=*/true));
  h.server->request_shutdown(h.now);
  h.advance(1000);
  EXPECT_TRUE(h.server->drained());
  EXPECT_EQ(h.server->net_metrics().drain_cancels, 1);
  // cancel() is deferred to the next step(); apply it and check.
  h.sched->step();
  EXPECT_EQ(h.sched->request(0).state, serve::RequestState::kCancelled);
}

// ---------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------

TEST(Signals, FlagAndWakeFd) {
  install_signal_handlers();
  reset_shutdown_flag();
  EXPECT_FALSE(shutdown_requested());
  ::raise(SIGTERM);
  EXPECT_TRUE(shutdown_requested());
  EXPECT_EQ(shutdown_signal_count(), 1);
  ::raise(SIGINT);
  EXPECT_EQ(shutdown_signal_count(), 2);  // the "abandon drain" threshold
  reset_shutdown_flag();
  EXPECT_FALSE(shutdown_requested());
}

}  // namespace
}  // namespace nora::net
