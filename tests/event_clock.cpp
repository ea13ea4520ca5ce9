#include "event_clock.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace nora::timing {

void EventClock::schedule_at(std::int64_t t_ps, Handler fn) {
  if (t_ps < now_ps_) {
    throw std::invalid_argument("EventClock: schedule_at t=" +
                                std::to_string(t_ps) + "ps is before now=" +
                                std::to_string(now_ps_) + "ps");
  }
  if (!fn) {
    throw std::invalid_argument("EventClock: null handler");
  }
  heap_.push_back(Event{t_ps, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventClock::schedule_after(std::int64_t dt_ps, Handler fn) {
  if (dt_ps < 0) {
    throw std::invalid_argument("EventClock: negative delay " +
                                std::to_string(dt_ps) + "ps");
  }
  schedule_at(now_ps_ + dt_ps, std::move(fn));
}

bool EventClock::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ps_ = ev.t_ps;  // never decreases: schedule_at rejects the past
  ++processed_;
  ev.fn();
  return true;
}

std::int64_t EventClock::run() {
  while (step()) {
  }
  return now_ps_;
}

}  // namespace nora::timing
