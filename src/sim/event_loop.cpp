#include "sim/event_loop.hpp"

#include <algorithm>
#include <utility>

namespace gossip::sim {

void EventLoop::schedule_at(SimTime at, Callback fn) {
  GOSSIP_REQUIRE(at >= now_, "cannot schedule into the past");
  GOSSIP_REQUIRE(static_cast<bool>(fn), "cannot schedule an empty callback");
  queue_.push_back(Entry{at, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), later);
}

bool EventLoop::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), later);
  // Moved out first: the callback may schedule, and so grow the queue.
  Entry e = std::move(queue_.back());
  queue_.pop_back();
  now_ = e.at;
  ++executed_;
  e.fn();
  return true;
}

void EventLoop::run_until(SimTime until) {
  while (!queue_.empty() && queue_.front().at <= until) step();
  if (now_ < until) now_ = until;
}

void EventLoop::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (step()) {
    GOSSIP_REQUIRE(++n <= max_events,
                   "event loop exceeded max_events — runaway schedule?");
  }
}

}  // namespace gossip::sim
