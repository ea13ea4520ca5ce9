// Byte-stream transport abstraction for the HTTP front end.
//
// The server's connection state machine reads and writes through this
// interface, so the SAME code path is driven two ways:
//
//   * TcpTransport — a real nonblocking socket accepted by TcpListener,
//     used by nora_serve and tests/test_net_load;
//   * SimTransport — one end of a deterministic in-memory byte pipe with
//     bounded capacity, used by the chaos harness and unit tests. Every
//     read/write moves exactly the bytes the caller asked for (subject
//     to capacity), nothing depends on kernel buffering or timing, so a
//     chaos soak over sim transports is replay-exact from its seed.
//
// Bounded pipe capacity is what makes the sim honest about backpressure:
// a stalled reader fills the pipe, the server's write() starts returning
// kAgain, its write buffer grows, and the write-stall machinery has to
// actually work — exactly like a zero-window TCP peer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace nora::net {

class Transport {
 public:
  /// read()/write() result conventions (mirroring nonblocking sockets):
  /// > 0 bytes moved; kAgain = would block, try later; kEof = peer
  /// closed cleanly (read only); kError = connection reset / broken.
  static constexpr std::ptrdiff_t kAgain = -1;
  static constexpr std::ptrdiff_t kEof = -2;
  static constexpr std::ptrdiff_t kError = -3;

  virtual ~Transport() = default;

  virtual std::ptrdiff_t read(char* buf, std::size_t n) = 0;
  virtual std::ptrdiff_t write(const char* buf, std::size_t n) = 0;
  /// Close this end; idempotent. Peer reads drain buffered bytes then
  /// see kEof; peer writes see kError.
  virtual void close() = 0;
  virtual bool closed() const = 0;
  /// OS descriptor for poller registration; -1 for simulated transports.
  virtual int fd() const { return -1; }
};

/// One end of an in-memory duplex pipe. Create with make_sim_pair();
/// both ends stay valid until both unique_ptrs die (shared core).
class SimTransport : public Transport {
 public:
  std::ptrdiff_t read(char* buf, std::size_t n) override;
  std::ptrdiff_t write(const char* buf, std::size_t n) override;
  void close() override;
  bool closed() const override;

  /// Bytes buffered and waiting for this end to read.
  std::size_t readable() const;
  /// True if the peer closed (kEof after draining) — lets a pump loop
  /// know this end is worth polling.
  bool peer_closed() const;

  struct Core;  // shared pipe state

 private:
  friend std::pair<std::unique_ptr<SimTransport>, std::unique_ptr<SimTransport>>
  make_sim_pair(std::size_t capacity);
  SimTransport(std::shared_ptr<Core> core, int side);
  std::shared_ptr<Core> core_;
  int side_;  // 0 or 1
};

/// A connected pair of sim endpoints; `capacity` bounds each direction
/// independently (like a socket buffer).
std::pair<std::unique_ptr<SimTransport>, std::unique_ptr<SimTransport>>
make_sim_pair(std::size_t capacity = 4096);

/// A real nonblocking TCP connection (client or accepted).
class TcpTransport : public Transport {
 public:
  /// Takes ownership of a connected nonblocking fd.
  explicit TcpTransport(int fd);
  ~TcpTransport() override;

  std::ptrdiff_t read(char* buf, std::size_t n) override;
  std::ptrdiff_t write(const char* buf, std::size_t n) override;
  void close() override;
  bool closed() const override;
  int fd() const override { return fd_; }

  /// Nonblocking connect to 127.0.0.1:port; returns nullptr on
  /// immediate failure. The connection may still be in progress — poll
  /// for writability before use (a failed connect surfaces as kError).
  static std::unique_ptr<TcpTransport> connect_local(int port);

 private:
  int fd_ = -1;
};

/// Listening TCP socket on 127.0.0.1 (loopback only: this is a bench /
/// demo server, not something to expose on an interface).
class TcpListener {
 public:
  /// port 0 = ephemeral; bound port readable via port().
  TcpListener(int port, int backlog);
  ~TcpListener();

  /// Accept one pending connection (nonblocking); nullptr when none.
  std::unique_ptr<TcpTransport> accept();

  int fd() const { return fd_; }
  int port() const { return port_; }
  void close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace nora::net
