// Real-socket load on the HTTP front end. The in-process tiny-model
// server listens on 127.0.0.1 and a single-threaded nonblocking client
// loop (net::TcpTransport over the same net::Poller the server uses)
// drives it through three phases:
//
//   1. burst: 200 streaming connections opened at once; every one must
//      reach a terminal outcome (finished stream or clean 4xx/5xx), with
//      no resets, no stuck sockets, completed + rejected == 200;
//   2. open-loop Poisson arrivals at 200 req/s for 1.5 s (arrivals never
//      wait for completions); every connection must be terminal;
//   3. SIGTERM mid-stream: every in-flight stream must finish and
//      HttpServer::run must return 0.
//
// Afterwards the KV pool must be idle (no live slab, only resident
// prefix tokens in use, no prefix lease held, acquires == releases) and
// the process must hold no more fds than before the server existed.
//
// Own executable: the fd count, the RLIMIT_NOFILE raise and the SIGTERM
// are all process-wide.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/resource.h>

#include "cim/tile_config.hpp"
#include "net/poller.hpp"
#include "net/server.hpp"
#include "net/signals.hpp"
#include "net/transport.hpp"
#include "nn/transformer.hpp"
#include "serve/scheduler.hpp"
#include "util/thread_pool.hpp"

namespace nora::net {
namespace {

constexpr int kBurstConns = 200;
constexpr double kPoissonRate = 200.0;  // requests per second
constexpr double kPoissonSeconds = 1.5;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int count_open_fds() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n - 3;  // ".", "..", and the dirfd itself
}

void raise_nofile_limit(rlim_t want) {
  struct rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  if (rl.rlim_cur >= want) return;
  rl.rlim_cur = std::min<rlim_t>(want, rl.rlim_max);
  ::setrlimit(RLIMIT_NOFILE, &rl);
}

nn::TransformerLM make_tiny() {
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
  for (auto* lin : model.linear_layers()) lin->to_analog(tiles, {}, seed++);
  return model;
}

std::string streaming_request(std::mt19937_64& rng, int max_new) {
  std::uniform_int_distribution<int> tok(0, 29);
  std::uniform_int_distribution<int> len(2, 6);
  std::string body = "{\"prompt\":[";
  const int n = len(rng);
  for (int i = 0; i < n; ++i) {
    if (i > 0) body += ",";
    body += std::to_string(tok(rng));
  }
  body += "],\"max_new_tokens\":" + std::to_string(max_new) +
          ",\"stream\":true}";
  return "POST /v1/completions HTTP/1.1\r\nHost: test\r\n"
         "Connection: close\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

struct PhaseStats {
  std::int64_t launched = 0;
  std::int64_t connect_failed = 0;
  std::int64_t completed = 0;  // 2xx with a finished stream
  std::int64_t rejected = 0;   // clean 4xx/5xx (backpressure working)
  std::int64_t failed = 0;     // reset / garbled / no response
  std::int64_t stuck = 0;      // no terminal outcome by the deadline

  bool all_terminal() const {
    return stuck == 0 && failed == 0 && connect_failed == 0;
  }
};

std::ostream& operator<<(std::ostream& os, const PhaseStats& s) {
  return os << "launched " << s.launched << ", completed " << s.completed
            << ", rejected " << s.rejected << ", failed " << s.failed
            << ", stuck " << s.stuck << ", connect_failed "
            << s.connect_failed;
}

/// Nonblocking client connections, one request each, read to EOF.
class LoadGen {
 public:
  explicit LoadGen(int port) : port_(port) {}

  void launch(const std::string& request) {
    ++stats_.launched;
    auto t = TcpTransport::connect_local(port_);
    if (t == nullptr) {
      ++stats_.connect_failed;
      return;
    }
    auto c = std::make_unique<Conn>();
    c->t = std::move(t);
    c->out = request;
    const std::uint64_t key = next_key_++;
    poller_.add(c->t->fd(), key, /*want_read=*/true, /*want_write=*/true);
    conns_.emplace(key, std::move(c));
  }

  std::size_t open_count() const { return conns_.size(); }

  void poll_once(int timeout_ms) {
    events_.clear();
    poller_.wait(events_, timeout_ms);
    for (const auto& ev : events_) {
      auto it = conns_.find(ev.key);
      if (it == conns_.end()) continue;
      Conn& c = *it->second;
      if (ev.writable && !c.sent_all) on_writable(ev.key, c);
      if (ev.readable && !c.done && !c.failed) on_readable(c);
      if (ev.error && !ev.readable && !c.done) c.failed = true;
      if (c.done || c.failed) finish(it);
    }
  }

  /// Drive until every connection is terminal or `deadline_s` passes;
  /// returns the phase's stats and starts a fresh phase.
  PhaseStats drain(double deadline_s) {
    while (!conns_.empty() && now_s() < deadline_s) poll_once(20);
    stats_.stuck += static_cast<std::int64_t>(conns_.size());
    for (auto& [key, c] : conns_) {
      poller_.remove(c->t->fd());
      c->t->close();
    }
    conns_.clear();
    return std::exchange(stats_, PhaseStats{});
  }

 private:
  struct Conn {
    std::unique_ptr<TcpTransport> t;
    std::string out;
    std::size_t off = 0;
    std::string in;
    bool sent_all = false;
    bool done = false;
    bool failed = false;
  };
  using ConnMap = std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>;

  void on_writable(std::uint64_t key, Conn& c) {
    while (c.off < c.out.size()) {
      const std::ptrdiff_t w =
          c.t->write(c.out.data() + c.off, c.out.size() - c.off);
      if (w > 0) {
        c.off += static_cast<std::size_t>(w);
        continue;
      }
      if (w != Transport::kAgain) c.failed = true;  // refused / reset
      return;
    }
    c.sent_all = true;
    poller_.modify(c.t->fd(), key, /*want_read=*/true, /*want_write=*/false);
  }

  void on_readable(Conn& c) {
    char buf[4096];
    while (true) {
      const std::ptrdiff_t r = c.t->read(buf, sizeof(buf));
      if (r > 0) {
        c.in.append(buf, static_cast<std::size_t>(r));
        continue;
      }
      if (r == Transport::kEof) c.done = true;
      if (r != Transport::kAgain && r != Transport::kEof) c.failed = true;
      return;
    }
  }

  void finish(ConnMap::iterator it) {
    Conn& c = *it->second;
    const bool ok2xx = c.in.rfind("HTTP/1.1 2", 0) == 0;
    const bool reject = c.in.rfind("HTTP/1.1 4", 0) == 0 ||
                        c.in.rfind("HTTP/1.1 5", 0) == 0;
    if (c.done && ok2xx && c.in.find("\"done\":true") != std::string::npos) {
      ++stats_.completed;
    } else if (c.done && reject) {
      ++stats_.rejected;
    } else {
      ++stats_.failed;  // reset, or EOF without a recognizable response
    }
    poller_.remove(c.t->fd());
    c.t->close();
    conns_.erase(it);
  }

  int port_;
  Poller poller_;
  ConnMap conns_;
  std::vector<Poller::Event> events_;
  std::uint64_t next_key_ = 1;
  PhaseStats stats_;
};

TEST(NetLoad, BurstPoissonAndSigtermDrainLeakNothing) {
  util::ThreadPool::global().resize(1);
  raise_nofile_limit(static_cast<rlim_t>(kBurstConns) * 2 + 512);
  install_signal_handlers();
  reset_shutdown_flag();

  nn::TransformerLM model = make_tiny();
  serve::SchedulerConfig scfg;
  scfg.max_batch = 16;
  scfg.kv_budget_tokens = 2048;
  scfg.queue_capacity = 4096;
  scfg.reject_on_pool_full = true;
  scfg.record_events = true;
  serve::Scheduler sched(model, scfg);

  // Taken before the server or the client opens anything, so a single
  // fd left open by either side shows up at the end.
  const int fd_baseline = count_open_fds();
  {
    ServerConfig ncfg;
    // The open-loop phase can hold ~2x the burst width in flight; size
    // the cap so it measures queueing, not shedding.
    ncfg.max_connections = kBurstConns * 2 + 64;
    ncfg.listen_backlog = 1024;
    ncfg.drain_timeout_ms = 15000;
    HttpServer server(sched, ncfg);
    server.listen();
    int server_rc = -1;
    std::thread server_thread([&] { server_rc = server.run(); });
    // Drains and joins the server on every path out of this scope,
    // including an exception from a phase below.
    struct Joiner {
      std::thread& t;
      ~Joiner() {
        if (!t.joinable()) return;
        ::raise(SIGTERM);
        t.join();
      }
    } joiner{server_thread};

    std::mt19937_64 rng(1);
    LoadGen gen(server.port());

    // ---- phase 1: concurrent-connection burst ------------------------
    for (int i = 0; i < kBurstConns; ++i) {
      gen.launch(streaming_request(rng, 8));
      // A brief poll every batch keeps the accept queue drained while
      // connections pile on.
      if (i % 64 == 63) gen.poll_once(0);
    }
    const PhaseStats burst = gen.drain(now_s() + 60.0);
    EXPECT_TRUE(burst.all_terminal()) << "burst: " << burst;
    EXPECT_EQ(burst.completed + burst.rejected, kBurstConns)
        << "burst: " << burst;

    // ---- phase 2: open-loop Poisson arrivals -------------------------
    std::exponential_distribution<double> gap(kPoissonRate);
    const double t_end = now_s() + kPoissonSeconds;
    double next_arrival = now_s();
    const std::size_t max_open = static_cast<std::size_t>(kBurstConns) * 2;
    while (now_s() < t_end) {
      const double now = now_s();
      while (next_arrival <= now) {
        next_arrival += gap(rng);
        if (gen.open_count() >= max_open) continue;  // fd-cap shed
        gen.launch(streaming_request(rng, 8));
      }
      const double sleep_s = std::clamp(next_arrival - now_s(), 0.0, 0.01);
      gen.poll_once(static_cast<int>(sleep_s * 1e3));
    }
    const PhaseStats poisson = gen.drain(now_s() + 30.0);
    EXPECT_TRUE(poisson.all_terminal()) << "poisson: " << poisson;

    // ---- phase 3: SIGTERM drain mid-stream ---------------------------
    for (int i = 0; i < 16; ++i) gen.launch(streaming_request(rng, 24));
    gen.poll_once(5);  // push the requests out
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::raise(SIGTERM);
    const PhaseStats drain = gen.drain(now_s() + 30.0);
    EXPECT_TRUE(drain.all_terminal()) << "drain: " << drain;
    server_thread.join();
    EXPECT_EQ(server_rc, 0) << server.metrics_json();
  }
  reset_shutdown_flag();

  // At idle the pool may retain published prefix entries (a resident
  // cache, evictable under budget pressure); a leak is anything beyond
  // that store, a live per-request slab, or an outstanding prefix lease.
  const serve::AuditSnapshot snap = sched.audit_snapshot();
  EXPECT_EQ(snap.pool_live, 0);
  EXPECT_EQ(snap.pool_used, snap.pool_prefix_tokens);
  EXPECT_EQ(snap.pool_prefix_refs, 0);
  EXPECT_EQ(snap.pool_acquires, snap.pool_releases);

  const int fd_final = count_open_fds();
  ASSERT_GE(fd_baseline, 0) << "/proc/self/fd unreadable";
  EXPECT_LE(fd_final, fd_baseline);
}

}  // namespace
}  // namespace nora::net
