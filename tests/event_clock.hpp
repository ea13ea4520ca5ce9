// Discrete-event simulation kernel of test_timing's reference per-block
// simulator, the oracle that HwModel's in-order recurrence for analog ops
// is checked against. Only test_timing uses it.
//
// Determinism contract: events dispatch in (timestamp, schedule order) —
// ties broken by a monotonically increasing sequence number — so replaying
// the same schedule calls is bit-identical on any host, independent of
// thread count. The clock is single-threaded by design: instrumented code
// emits a trace on the serving thread and the replay happens after the
// fact, so no host-side concurrency can reorder events. Timestamps are
// integer picoseconds: no float accumulation, no platform-dependent
// rounding.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace nora::timing {

class EventClock {
 public:
  using Handler = std::function<void()>;

  std::int64_t now_ps() const { return now_ps_; }

  /// Schedule `fn` at absolute time `t_ps`. Scheduling in the past throws
  /// std::invalid_argument (simulated time cannot move backwards);
  /// t_ps == now_ps() is allowed — a zero-duration event dispatches after
  /// already-queued events at the same timestamp and cannot spin the
  /// clock backwards.
  void schedule_at(std::int64_t t_ps, Handler fn);
  /// Schedule `fn` at now_ps() + dt_ps. Negative dt_ps throws.
  void schedule_after(std::int64_t dt_ps, Handler fn);

  /// Dispatch events in (time, seq) order until the queue is empty and
  /// return the final clock value. Handlers may schedule further events.
  std::int64_t run();
  /// Dispatch a single event; returns false when the queue is empty.
  bool step();

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::int64_t processed() const { return processed_; }

 private:
  struct Event {
    std::int64_t t_ps = 0;
    std::uint64_t seq = 0;
    Handler fn;
  };
  // Min-heap: std::push_heap/pop_heap keep the earliest (t, seq) at front.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t_ps != b.t_ps) return a.t_ps > b.t_ps;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
  std::int64_t now_ps_ = 0;
  std::uint64_t next_seq_ = 0;
  std::int64_t processed_ = 0;
};

}  // namespace nora::timing
