// Discrete-event simulation kernel.
//
// A monotonic virtual clock plus a priority queue of callbacks. Events at
// equal timestamps run in scheduling (FIFO) order, which together with
// the seeded Rng makes every simulation fully deterministic. This is the
// substrate for the event-driven protocol stack (src/proto) — the
// paper's "practical protocol" conditions with real message delays,
// timeouts and unsynchronized cycles.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/require.hpp"

namespace gossip::sim {

/// Virtual time in microseconds (granular enough for network latencies,
/// wide enough for years of simulated uptime).
using SimTime = std::uint64_t;

/// No event is ever cancelled: a host that arms a timeout lets it fire
/// and ignores it when stale (proto::Node::on_timeout checks the request
/// id), so each callback lives in its heap entry.
class EventLoop {
public:
  using Callback = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `at` (>= now).
  void schedule_at(SimTime at, Callback fn);

  /// Schedules `fn` after `delay` from now.
  void schedule_after(SimTime delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs the next event. Returns false when the queue is empty.
  bool step();

  /// Runs every event with time <= `until` (inclusive); the clock ends at
  /// `until` even if the queue drained earlier.
  void run_until(SimTime until);

  /// Drains the queue completely. Guarded against runaway periodic
  /// schedules via `max_events`.
  void run(std::uint64_t max_events = 100'000'000);

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // FIFO tie-break
    Callback fn;
  };

  /// Heap order over (at, seq), so std::push_heap/pop_heap keep the
  /// earliest entry at the front.
  static bool later(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> queue_;  // a heap under later()
};

}  // namespace gossip::sim
