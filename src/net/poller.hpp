// Readiness notification over epoll (the code is Linux-only, so epoll
// always exists). Level-triggered: the server re-arms interest per
// connection as its write buffer fills and drains.
#pragma once

#include <cstdint>
#include <vector>

namespace nora::net {

class Poller {
 public:
  struct Event {
    std::uint64_t key = 0;
    bool readable = false;
    bool writable = false;
    bool error = false;  // HUP / ERR: the connection needs tearing down
  };

  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(int fd, std::uint64_t key, bool want_read, bool want_write);
  void modify(int fd, std::uint64_t key, bool want_read, bool want_write);
  void remove(int fd);

  /// Blocks up to timeout_ms (-1 = forever, 0 = poll and return).
  /// Appends ready events to `out` (not cleared). Returns event count,
  /// 0 on timeout; EINTR reports as 0 so signal wake-ups fall through
  /// to the caller's shutdown check.
  int wait(std::vector<Event>& out, int timeout_ms);

 private:
  int epoll_fd_ = -1;
};

}  // namespace nora::net
