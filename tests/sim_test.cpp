// Tests for src/sim: event ordering, FIFO tie-break, run_until
// semantics, re-arming from a callback, runaway protection.
#include <gtest/gtest.h>

#include <vector>

#include "common/require.hpp"
#include "sim/event_loop.hpp"

namespace gossip::sim {
namespace {

TEST(EventLoop, StartsAtZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), 0u);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_FALSE(loop.step());
}

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30u);
  EXPECT_EQ(loop.executed(), 3u);
}

TEST(EventLoop, FifoTieBreakAtEqualTimes) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  SimTime seen = 0;
  loop.schedule_at(100, [&] {
    loop.schedule_after(50, [&] { seen = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(seen, 150u);
}

TEST(EventLoop, SchedulingIntoThePastThrows) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run();
  EXPECT_THROW(loop.schedule_at(50, [] {}), require_error);
  EXPECT_THROW(loop.schedule_at(100, EventLoop::Callback{}), require_error);
}

TEST(EventLoop, RunUntilStopsAndAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(30, [&] { ++fired; });
  loop.run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 20u);  // clock moved to the barrier
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_until(30);  // inclusive
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, RunUntilOnEmptyQueueAdvancesClock) {
  EventLoop loop;
  loop.run_until(500);
  EXPECT_EQ(loop.now(), 500u);
}

TEST(EventLoop, PeriodicSelfRescheduling) {
  EventLoop loop;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 5) loop.schedule_after(10, tick);
  };
  loop.schedule_after(10, tick);
  loop.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(loop.now(), 50u);
}

TEST(EventLoop, RunawayScheduleCaught) {
  EventLoop loop;
  std::function<void()> forever = [&] { loop.schedule_after(1, forever); };
  loop.schedule_after(1, forever);
  EXPECT_THROW(loop.run(/*max_events=*/1000), require_error);
}

}  // namespace
}  // namespace gossip::sim
