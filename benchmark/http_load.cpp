// HTTP workloads (http_prefix, http_short): an in-process net::HttpServer
// on its own thread, driven over loopback by a one-thread open-loop client
// with at most `clients` keep-alive connections.
//
// Arrivals are Poisson conditioned on their count: exactly rate x duration
// requests at sorted uniform times, so the offered load is the same for
// every seed. Each request is timed from its scheduled time; waiting for a
// free connection counts against it.
#include <poll.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <thread>

#include "bench.hpp"
#include "net/server.hpp"
#include "net/signals.hpp"
#include "net/transport.hpp"
#include "util/thread_pool.hpp"

namespace nora::bench {

namespace {

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string completion_request(const Request& q) {
  std::string body = "{\"prompt\":[";
  for (std::size_t i = 0; i < q.prompt.size(); ++i) {
    if (i > 0) body += ',';
    body += std::to_string(q.prompt[i]);
  }
  body += "],\"max_new_tokens\":" + std::to_string(q.max_new_tokens) +
          ",\"stream\":true}";
  return "POST /v1/completions HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// One keep-alive client connection and its response parser state.
struct Conn {
  std::unique_ptr<net::TcpTransport> t;
  bool ready = false;       // connect completed
  std::int64_t req = -1;    // request index in flight
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t pos = 0;      // parse cursor into `in`
  bool head = false;        // response head parsed
  int status = 0;
  bool chunked = false;
  std::size_t body_left = 0;
  bool finished = false;    // saw {"done":true,"state":"finished"}
};

class LoadClient {
 public:
  LoadClient(int port, int conns) : port_(port), conns_(static_cast<std::size_t>(conns)) {
    for (Conn& c : conns_) reconnect(c);
  }

  /// Serve every request at its due time; returns when all are terminal
  /// or `deadline` passes. `tick` runs once per loop iteration.
  void run(const std::vector<Request>& reqs, const std::vector<double>& due,
           std::vector<Outcome>& out, double deadline,
           const std::function<void(double)>& tick) {
    reqs_ = &reqs;
    out_ = &out;
    std::deque<std::int64_t> fifo;
    std::size_t next = 0;
    std::vector<pollfd> fds(conns_.size());
    while (finished_ < static_cast<std::int64_t>(reqs.size())) {
      double now = now_s();
      tick(now);
      if (now > deadline) break;
      while (next < due.size() && due[next] <= now) {
        late_.push_back(now - due[next]);
        fifo.push_back(static_cast<std::int64_t>(next++));
      }
      for (Conn& c : conns_) {
        if (fifo.empty()) break;
        if (c.ready && c.req < 0) {
          send(c, fifo.front(), due[static_cast<std::size_t>(fifo.front())], now);
          fifo.pop_front();
        }
      }
      for (std::size_t k = 0; k < conns_.size(); ++k) {
        const Conn& c = conns_[k];
        fds[k].fd = c.t->fd();
        fds[k].events = POLLIN;
        if (!c.ready || c.out_off < c.out.size()) fds[k].events |= POLLOUT;
        fds[k].revents = 0;
      }
      // Sleep until the next arrival (ns resolution, so the generator is
      // not late by a poll tick) or until a connection has something.
      const double wait =
          next < due.size() ? std::clamp(due[next] - now, 0.0, 0.1) : 0.1;
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(wait);
      ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
      if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
      now = now_s();
      for (std::size_t k = 0; k < conns_.size(); ++k) {
        Conn& c = conns_[k];
        if (fds[k].revents & POLLOUT) {
          c.ready = true;
          flush(c);
        }
        if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) receive(c, now);
      }
    }
  }

  const std::vector<double>& late() const { return late_; }
  std::int64_t errors() const { return errors_; }

  void close_all() {
    for (Conn& c : conns_) c.t->close();
  }

 private:
  void reconnect(Conn& c) {
    c = Conn{};
    c.t = net::TcpTransport::connect_local(port_);
    if (c.t == nullptr) throw std::runtime_error("load client: connect failed");
  }

  void send(Conn& c, std::int64_t i, double due, double now) {
    Outcome& o = (*out_)[static_cast<std::size_t>(i)];
    o.due = due;
    o.sent = now;
    c.req = i;
    c.out = completion_request((*reqs_)[static_cast<std::size_t>(i)]);
    c.out_off = 0;
    flush(c);
  }

  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const std::ptrdiff_t n =
          c.t->write(c.out.data() + c.out_off, c.out.size() - c.out_off);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else {
        if (n != net::Transport::kAgain) fail(c);
        return;
      }
    }
  }

  void receive(Conn& c, double now) {
    char buf[16384];
    while (true) {
      const std::ptrdiff_t n = c.t->read(buf, sizeof(buf));
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n != net::Transport::kAgain) {
        fail(c);  // the server never closes a healthy keep-alive stream
        return;
      }
      break;
    }
    parse(c, now);
  }

  void parse(Conn& c, double now) {
    while (c.req >= 0) {
      if (!c.head) {
        const std::size_t e = c.in.find("\r\n\r\n", c.pos);
        if (e == std::string::npos) return;
        const std::string head = c.in.substr(c.pos, e - c.pos);
        c.status = head.size() > 12 ? std::atoi(head.c_str() + 9) : 0;
        c.chunked = head.find("chunked") != std::string::npos;
        const std::size_t cl = head.find("Content-Length:");
        c.body_left = cl == std::string::npos
                          ? 0
                          : std::strtoull(head.c_str() + cl + 15, nullptr, 10);
        c.pos = e + 4;
        c.head = true;
      }
      if (!c.chunked) {
        if (c.in.size() - c.pos < c.body_left) return;
        c.pos += c.body_left;
        complete(c, now);
        continue;
      }
      const std::size_t e = c.in.find("\r\n", c.pos);
      if (e == std::string::npos) return;
      const std::size_t size = std::strtoull(c.in.c_str() + c.pos, nullptr, 16);
      if (c.in.size() < e + 2 + size + 2) return;
      const std::string_view payload(c.in.data() + e + 2, size);
      c.pos = e + 2 + size + 2;
      if (size == 0) {
        complete(c, now);
        continue;
      }
      Outcome& o = (*out_)[static_cast<std::size_t>(c.req)];
      static constexpr std::string_view kToken = "{\"token\":";
      if (payload.substr(0, kToken.size()) == kToken) {
        o.tokens.push_back(std::atoi(payload.data() + kToken.size()));
        if (o.tokens.size() == 1) o.first = now;
        o.last = now;
      } else if (payload.find("\"done\":true,\"state\":\"finished\"") !=
                 std::string_view::npos) {
        c.finished = true;
      }
    }
  }

  void complete(Conn& c, double now) {
    Outcome& o = (*out_)[static_cast<std::size_t>(c.req)];
    o.done = true;
    o.ok = c.status == 200 && c.finished &&
           static_cast<int>(o.tokens.size()) ==
               (*reqs_)[static_cast<std::size_t>(c.req)].max_new_tokens;
    if (o.tokens.empty()) o.first = o.last = now;
    if (!o.ok) ++errors_;
    ++finished_;
    c.in.erase(0, c.pos);
    c.pos = 0;
    c.head = false;
    c.finished = false;
    c.req = -1;
  }

  void fail(Conn& c) {
    if (c.req >= 0) {
      Outcome& o = (*out_)[static_cast<std::size_t>(c.req)];
      o.done = true;
      o.ok = false;
      o.first = o.last = now_s();
      ++finished_;
    }
    ++errors_;
    c.t->close();
    reconnect(c);
  }

  int port_;
  std::vector<Conn> conns_;
  const std::vector<Request>* reqs_ = nullptr;
  std::vector<Outcome>* out_ = nullptr;
  std::vector<double> late_;
  std::int64_t finished_ = 0;
  std::int64_t errors_ = 0;
};

}  // namespace

RunData run_http(const Workload& w, const RunOptions& opt, Tracer& tracer) {
  RunData run;
  util::ThreadPool::global().resize(w.pool_width);
  net::install_signal_handlers();
  // Timer slack bounds how late the client wakes for an arrival.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const int fds0 = count_open_fds();

  net::ServerConfig ncfg;
  ncfg.max_connections = 64;
  Deployment dep;
  std::unique_ptr<serve::Scheduler> sched;
  std::unique_ptr<net::HttpServer> server;
  const auto teardown = [&] {
    server.reset();
    sched.reset();
    dep = Deployment{};
  };
  const auto build = [&] {
    dep = deploy(w);
    sched = std::make_unique<serve::Scheduler>(*dep.model,
                                               scheduler_config(w, false));
    server = std::make_unique<net::HttpServer>(*sched, ncfg);
    server->listen();
    return dep.deploy_s;
  };
  time_setups(run, opt.smoke, teardown, build);

  double server_cpu_s = 0.0;
  int server_rc = -1;
  std::thread server_thread([&] {
    const double c0 = thread_cpu_s();
    server_rc = server->run();
    server_cpu_s = thread_cpu_s() - c0;
  });

  const double warmup = opt.smoke ? 0.5 : w.warmup_s;
  const double span = warmup + opt.seconds;
  // The checked requests served again offline by a closed loop of as many
  // clients as connections, on the same fingerprint streams with timing
  // on: their tokens must equal what HTTP delivered, and the loop yields
  // the sim-clock metrics and step spans (the live server's sim clock
  // would depend on host timing).
  ClosedLoop cl;
  cl.clients = w.clients;
  cl.window_s = 1e9;
  cl.bounded = true;
  cl.checked = w.checked;
  cl.sim_requests = opt.smoke ? 8 : w.sim_requests;
  const double rate = opt.rate_rps > 0.0 ? opt.rate_rps : w.rate_rps;
  // Warm-up and window arrivals are drawn separately, so exactly
  // rate x seconds requests are due inside the measured window.
  util::Rng arrivals(util::derive_seed(opt.seed, w.name + "/arrivals"));
  std::vector<double> due;
  for (const auto& [from, len] : {std::pair{0.0, warmup},
                                  std::pair{warmup, opt.seconds}}) {
    for (std::int64_t k = std::llround(rate * len); k > 0; --k) {
      due.push_back(from + arrivals.uniform() * len);
    }
  }
  // Short (smoke) runs still send every request the cross-check needs.
  while (static_cast<std::int64_t>(due.size()) < cl.needed()) {
    due.push_back(arrivals.uniform() * span);
  }
  std::sort(due.begin(), due.end());
  const std::size_t n = due.size();
  for (std::size_t i = 0; i < n; ++i) {
    run.requests.push_back(w.make(opt.seed, static_cast<std::int64_t>(i)));
  }
  run.outcomes.resize(n);

  {
    LoadClient client(server->port(), w.clients);
    const double start = now_s() + 0.05;
    for (double& d : due) d += start;
    run.t0 = start + warmup;
    run.t1 = run.t0 + opt.seconds;
    Counters c0;
    bool opened = false, closed = false;
    const auto edges = [&](double now) {
      if (!opened && now >= run.t0) {
        opened = true;
        c0 = Counters::read(*sched);
        run.t0 = c0.t;
      } else if (opened && !closed && now >= run.t1) {
        closed = true;
        run.window = Counters::read(*sched) - c0;
        run.t1 = c0.t + run.window.t;
      }
    };
    client.run(run.requests, due, run.outcomes, start + span + 60.0, edges);
    // The load may end before the window's planned end, or just after it
    // without another tick: the window still closes at its planned time.
    if (opened && !closed) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.0, run.t1 - now_s())));
      edges(std::max(now_s(), run.t1));
    }
    if (!closed) run.errors.push_back("load did not finish in time");
    std::vector<double> late;
    for (std::size_t i = 0; i < n; ++i) {
      if (due[i] >= run.t0 && due[i] < run.t1) {
        late.push_back(client.late()[i]);
      }
    }
    run.extra.push_back({"loadgen.late_p90_ms", "ms",
                         1e3 * serve::percentile(late, 0.9)});
    if (client.errors() > 0) {
      run.errors.push_back(std::to_string(client.errors()) +
                           " requests failed over HTTP");
    }
    ::raise(SIGTERM);  // graceful drain: the server loop exits 0
    server_thread.join();
    client.close_all();
  }
  if (server_rc != 0) run.errors.push_back("server drain failed");
  // Request lifecycles of the traced slices (the client keeps its stamps
  // in the outcomes, so spans are cut after the load).
  std::vector<double> ttft[2];
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = run.outcomes[i];
    const bool in_window = o.due >= run.t0 && o.due < run.t1;
    const bool traced = in_window && trace_slice(o.due, run.t0);
    if (in_window) ttft[traced].push_back(o.first - o.due);
    tracer.set_active(traced);
    const auto id = static_cast<std::int64_t>(i);
    tracer.add("request", "http", 2, o.due, o.last, id);
    tracer.add("wait", "http", 2, o.due, o.sent, id);
    tracer.add("first_token", "http", 2, o.sent, o.first, id);
    tracer.add("decode", "http", 2, o.first, o.last, id);
  }
  tracer.set_active(false);
  if (opt.trace && !ttft[0].empty() && !ttft[1].empty()) {
    run.trace_overhead_frac = median(ttft[1]) / median(ttft[0]) - 1.0;
  }

  const serve::Metrics m = sched->metrics();
  run.kv_high_water_frac = static_cast<double>(m.kv_high_water_tokens) /
                           static_cast<double>(m.kv_budget_tokens);
  audit_idle(*sched, run.errors);
  const net::NetMetrics& nm = server->net_metrics();
  const std::int64_t net_errors =
      nm.shed + nm.responses_4xx + nm.responses_5xx + nm.malformed +
      nm.header_timeouts + nm.write_stall_cancels + nm.disconnect_cancels +
      nm.overflow_closes + nm.discard_aborts + nm.drain_cancels;
  run.extra.push_back({"net.errors", "count", static_cast<double>(net_errors)});
  run.extra.push_back(
      {"net.bytes_out_per_token", "B/token",
       static_cast<double>(nm.bytes_out) /
           std::max<double>(1.0, static_cast<double>(m.generated_tokens))});
  if (w.pool_width == 1) {
    // Only without pool workers is the loop thread's CPU inside forward
    // equal to the forward's wall time; with them it waits there too.
    run.extra.push_back(
        {"net.loop_cpu_us_per_req", "us",
         1e6 * (server_cpu_s - m.wall_s) /
             std::max<double>(1.0, static_cast<double>(n))});
  }
  server.reset();

  sched = std::make_unique<serve::Scheduler>(*dep.model,
                                             scheduler_config(w, true));
  const ClosedLoopRun cr = run_closed_loop(*sched, w, opt.seed, cl, tracer);
  for (std::int64_t i = 0; i < w.checked; ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (cr.outcomes[k].tokens != run.outcomes[k].tokens) {
      run.errors.push_back("request " + std::to_string(i) +
                           ": HTTP tokens differ from the offline replay");
      break;
    }
  }
  run.loop = cr.loop;
  run.sim = cr.sim;
  audit_idle(*sched, run.errors);
  check_alone(*dep.model, w, run);

  if (opt.trace) {
    run.shape = mean_step(run);
    run.layers = replay_layers(*dep.model, run.shape, false,
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
