#include "net/poller.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include <sys/epoll.h>
#include <unistd.h>

namespace nora::net {

namespace {
void epoll_control(int epoll_fd, int op, int fd, std::uint64_t key,
                   bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = key;
  if (::epoll_ctl(epoll_fd, op, fd, &ev) < 0) {
    throw std::runtime_error(
        std::string("net: epoll_ctl(") + (op == EPOLL_CTL_ADD ? "ADD" : "MOD") +
        ") failed: " + std::strerror(errno));
  }
}
}  // namespace

Poller::Poller() : epoll_fd_(::epoll_create1(0)) {
  if (epoll_fd_ < 0) {
    throw std::runtime_error("net: epoll_create1 failed: " +
                             std::string(std::strerror(errno)));
  }
}

Poller::~Poller() { ::close(epoll_fd_); }

void Poller::add(int fd, std::uint64_t key, bool want_read, bool want_write) {
  epoll_control(epoll_fd_, EPOLL_CTL_ADD, fd, key, want_read, want_write);
}

void Poller::modify(int fd, std::uint64_t key, bool want_read,
                    bool want_write) {
  epoll_control(epoll_fd_, EPOLL_CTL_MOD, fd, key, want_read, want_write);
}

void Poller::remove(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);  // best-effort
}

int Poller::wait(std::vector<Event>& out, int timeout_ms) {
  epoll_event evs[256];
  const int n = ::epoll_wait(epoll_fd_, evs, 256, timeout_ms);
  if (n <= 0) return 0;  // timeout or EINTR
  for (int i = 0; i < n; ++i) {
    Event e;
    e.key = evs[i].data.u64;
    e.readable = (evs[i].events & (EPOLLIN | EPOLLHUP)) != 0;
    e.writable = (evs[i].events & EPOLLOUT) != 0;
    e.error = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(e);
  }
  return n;
}

}  // namespace nora::net
