// Single-server FIFO resource on the integer-picosecond timeline. DAC
// banks, tile MVM pipelines, shared ADC column groups and inter-tile
// transfer links are all instances of the same contention model: a
// request that arrives while the server is busy waits until the previous
// grant drains. Requests made in time order (HwModel's in-order
// recurrence, or the event-driven reference simulator in test_timing)
// make the queueing discipline FIFO and fully deterministic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace nora::timing {

class Resource {
 public:
  /// Claim the resource for `dur_ps` starting no earlier than `ready_ps`;
  /// returns the completion time. Zero-duration grants are legal (a stage
  /// whose configured fraction is zero) and leave the server free at the
  /// same instant.
  std::int64_t acquire(std::int64_t ready_ps, std::int64_t dur_ps) {
    if (ready_ps < 0 || dur_ps < 0) {
      throw std::invalid_argument("Resource: negative time (ready=" +
                                  std::to_string(ready_ps) + "ps dur=" +
                                  std::to_string(dur_ps) + "ps)");
    }
    const std::int64_t start = std::max(free_at_ps_, ready_ps);
    free_at_ps_ = start + dur_ps;
    busy_ps_ += dur_ps;
    ++grants_;
    return free_at_ps_;
  }

  std::int64_t free_at_ps() const { return free_at_ps_; }
  std::int64_t busy_ps() const { return busy_ps_; }
  std::int64_t grants() const { return grants_; }

 private:
  std::int64_t free_at_ps_ = 0;
  std::int64_t busy_ps_ = 0;
  std::int64_t grants_ = 0;
};

}  // namespace nora::timing
