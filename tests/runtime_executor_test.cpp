// Tests for the deployment-runtime executor (src/runtime/executor.*,
// src/runtime/transport.*): exact sum conservation under zero loss, the
// loss-exact quiescence discipline (no timeout and no late reply ever
// happens without real loss), also under batched outboxes and held
// frames, liveness under injected loss, one error (not a hang) for a
// corrupt frame, N >= 1000 on the Engine path in one process, and a
// two-process socket run hosted on two threads. Runs with several workers are wall-clock concurrent and not
// bit-deterministic, so their assertions are protocol invariants; one-worker
// loopback runs are repeatable and pinned exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/require.hpp"
#include "experiment/engine.hpp"
#include "experiment/spec.hpp"
#include "failure/comm_failure.hpp"
#include "failure/failure_plan.hpp"
#include "runtime/executor.hpp"
#include "runtime/transport.hpp"

namespace gossip::runtime {
namespace {

using experiment::DriverKind;
using experiment::RunResult;
using experiment::RuntimeSpec;
using experiment::ScenarioSpec;

ExecutorConfig peak_config(std::uint32_t nodes, std::uint32_t cycles,
                           std::uint32_t workers) {
  ExecutorConfig cfg;
  cfg.nodes = nodes;
  cfg.local_lo = 0;
  cfg.local_hi = nodes;
  cfg.cycles = cycles;
  cfg.workers = workers;
  cfg.overlay = OverlayMode::kComplete;
  cfg.seed = 42;
  cfg.initial.assign(nodes, 0.0);
  cfg.initial[0] = static_cast<double>(nodes);
  return cfg;
}

// Zero injected loss: the quiescence rule guarantees no pending is ever
// expired while its reply is alive, so the global estimate sum is
// conserved *exactly* — and the timeout/late-reply counters prove the
// discipline held, not just the sums.
TEST(Executor, LoopbackZeroLossConservesSumExactly) {
  LoopbackTransport transport;
  Executor executor(peak_config(64, 15, 4), transport);
  const ExecutorResult result =
      executor.run(failure::NoFailures());

  EXPECT_EQ(result.participants, 64u);
  EXPECT_DOUBLE_EQ(result.sum_final, result.sum_initial);
  EXPECT_DOUBLE_EQ(result.sum_initial, 64.0);

  const RuntimeCounters& c = result.counters;
  EXPECT_GT(c.exchanges_completed, 0u);
  EXPECT_EQ(c.timeouts, 0u);
  EXPECT_EQ(c.late_replies, 0u);
  EXPECT_EQ(c.dropped_loss, 0u);
  EXPECT_EQ(c.replies_sent, c.replies_received);
  EXPECT_GE(c.pushes_sent, c.exchanges_completed);
  EXPECT_GT(c.bytes_encoded, 0u);
  EXPECT_EQ(c.bytes_encoded, c.bytes_decoded);

  // Peak converges toward the true mean 1.0.
  ASSERT_FALSE(result.per_cycle.empty());
  EXPECT_LT(result.per_cycle.back().variance(),
            result.per_cycle.front().variance() / 100.0);
}

// Injected loss: the run still terminates, drops are counted, and every
// lost request/response surfaces as a timeout instead of hanging a node.
TEST(Executor, LoopbackSurvivesMessageLoss) {
  FaultConfig faults;
  faults.p_loss = 0.2;
  faults.seed = 7;
  LoopbackTransport transport(faults);
  Executor executor(peak_config(64, 10, 2), transport);
  const ExecutorResult result =
      executor.run(failure::NoFailures());

  EXPECT_EQ(result.participants, 64u);
  EXPECT_GT(result.counters.dropped_loss, 0u);
  EXPECT_GT(result.counters.timeouts, 0u);
  EXPECT_GT(result.counters.exchanges_completed, 0u);
}

// Injected delay: frames are held to their deadline and still settle
// within the cycle (the wall timeout is never the resolution path). The
// δ pacing staggers initiations across wheel slots so the 200 us
// round-trips interleave with free nodes instead of all colliding.
TEST(Executor, LoopbackDeliversDelayedFrames) {
  FaultConfig faults;
  faults.latency = {failure::Latency::Kind::kFixed, 200, 0};  // 200 us
  LoopbackTransport transport(faults);
  ExecutorConfig cfg = peak_config(32, 5, 2);
  cfg.delta_us = 20000;
  Executor executor(std::move(cfg), transport);
  const ExecutorResult result =
      executor.run(failure::NoFailures());

  EXPECT_DOUBLE_EQ(result.sum_final, result.sum_initial);
  EXPECT_EQ(result.counters.timeouts, 0u);
  EXPECT_GT(result.counters.exchanges_completed, 0u);
}

// Quiescence under batching: a worker's sends wait in per-worker
// outboxes, and a flush counts them, publishes them and only then
// releases the frames it processed, so in_flight == 0 still proves no
// local reply is alive. Zero-loss NEWSCAST runs on 2 and 4 workers, with
// and without injected delay (frames held to their deadline), over 5
// seeds each: the sum is conserved exactly, and no pending is ever
// expired while its reply is alive.
TEST(Executor, BatchedOutboxesKeepQuiescenceExact) {
  for (const std::uint32_t workers : {2u, 4u}) {
    for (const bool delayed : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " delayed=" + std::to_string(delayed) +
                     " seed=" + std::to_string(seed));
        FaultConfig faults;
        faults.seed = seed;
        if (delayed) {
          faults.latency = {failure::Latency::Kind::kUniform, 0, 300};
        }
        LoopbackTransport transport(faults);
        ExecutorConfig cfg = peak_config(2000, 6, workers);
        cfg.overlay = OverlayMode::kNewscast;
        cfg.seed = seed;
        Executor executor(std::move(cfg), transport);
        const ExecutorResult result = executor.run(failure::NoFailures());

        const RuntimeCounters& c = result.counters;
        EXPECT_DOUBLE_EQ(result.sum_final, result.sum_initial);
        EXPECT_EQ(c.timeouts, 0u);
        EXPECT_EQ(c.late_replies, 0u);
        EXPECT_EQ(c.replies_sent, c.replies_received);
        EXPECT_EQ(c.bytes_encoded, c.bytes_decoded);
        EXPECT_GT(c.exchanges_completed, 0u);
      }
    }
  }
}

/// Loopback that damages the k-th frame sent: cut by its last byte, or
/// its tag replaced by one no message has.
class CorruptingTransport final : public Transport {
public:
  enum class Damage { kTruncate, kGarble };

  CorruptingTransport(std::uint64_t k, Damage damage)
      : Transport({}), k_(k), damage_(damage) {}

  bool send(NodeId src, NodeId dst, std::vector<std::byte> payload) override {
    if (sent_.fetch_add(1, std::memory_order_relaxed) + 1 == k_) {
      if (damage_ == Damage::kTruncate) {
        payload.pop_back();
      } else {
        payload[0] = std::byte{0x7f};
      }
    }
    std::chrono::steady_clock::time_point deliver_at;
    if (fault_drop(deliver_at)) return false;
    deliver(Frame{src, dst, std::move(payload), deliver_at});
    return true;
  }
  [[nodiscard]] bool is_local(NodeId) const override { return true; }

private:
  std::atomic<std::uint64_t> sent_{0};
  std::uint64_t k_;
  Damage damage_;
};

// A corrupt frame ends a 4-worker run with one error that names the
// decode failure, never a hang. The 300th frame is handled in the first
// wheel tick's drain, between two flushes, so the worker that fails still
// holds queued outbox frames and processed frames it has not released
// (14 of each, when instrumented), and the in-flight count never drains
// to zero: the other workers must stop on the failure flag, not on
// quiescence.
TEST(Executor, CorruptFrameEndsFourWorkerRunWithOneError) {
  using Damage = CorruptingTransport::Damage;
  const std::pair<Damage, const char*> cases[] = {
      {Damage::kTruncate, "truncated message"},
      {Damage::kGarble, "unknown message tag"},
  };
  for (const auto& [damage, reason] : cases) {
    SCOPED_TRACE(reason);
    CorruptingTransport transport(300, damage);
    ExecutorConfig cfg = peak_config(2000, 20, 4);
    cfg.overlay = OverlayMode::kNewscast;
    Executor executor(std::move(cfg), transport);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      (void)executor.run(failure::NoFailures());
      ADD_FAILURE() << "a run with a corrupt frame returned";
    } catch (const require_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("executor run failed"), std::string::npos) << what;
      EXPECT_NE(what.find(reason), std::string::npos) << what;
    }
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              5.0);
  }
}

// The ScenarioSpec path at scale: N = 1000 live nodes in one process on
// the NEWSCAST overlay, driven end-to-end through the Engine facade.
TEST(Executor, EngineRunsThousandNodesInOneProcess) {
  ScenarioSpec spec = ScenarioSpec::average_peak("runtime_1k", 1000, 20)
                          .with_driver(DriverKind::kRuntime)
                          .with_seed(11);
  spec.runtime.workers = 4;
  experiment::validate(spec);

  experiment::Engine engine;
  const RunResult result = engine.run_single(spec, spec.seed);

  EXPECT_TRUE(result.runtime_enabled);
  EXPECT_EQ(result.participants, 1000u);
  ASSERT_FALSE(result.per_cycle.empty());
  EXPECT_EQ(result.per_cycle.front().count(), 1000u);
  EXPECT_LT(result.per_cycle.back().variance(),
            result.per_cycle.front().variance() / 100.0);
  EXPECT_GT(result.runtime_counters.exchanges_completed, 1000u);
  EXPECT_EQ(result.runtime_counters.timeouts, 0u);
  EXPECT_NEAR(result.runtime_sum_final, result.runtime_sum_initial,
              1e-6 * 1000.0);
}

// Churn through the spec vocabulary: joiners sit out the epoch as
// non-participants, crashes shrink the live set, the run stays live.
TEST(Executor, EngineRunsChurnOnNewscast) {
  ScenarioSpec spec = ScenarioSpec::average_peak("runtime_churn", 200, 10)
                          .with_driver(DriverKind::kRuntime)
                          .with_seed(5)
                          .with_failure(experiment::FailureSpec::churn(4));
  spec.runtime.workers = 2;
  experiment::validate(spec);

  experiment::Engine engine;
  const RunResult result = engine.run_single(spec, spec.seed);

  EXPECT_TRUE(result.runtime_enabled);
  EXPECT_GT(result.participants, 0u);
  EXPECT_LT(result.participants, 200u);  // kills hit participants too
  EXPECT_GT(result.runtime_counters.exchanges_completed, 0u);
}

// Two cooperating processes (hosted on two threads here, real processes
// in tests/cli/runtime_two_proc.sh) over the TCP socket transport: the
// id space splits [0,32) / [32,64), frames cross a real socket, and the
// *combined* estimate sum is conserved exactly under zero loss.
TEST(Executor, TwoProcessSocketRunConservesCombinedSum) {
  constexpr std::uint32_t kNodes = 64;
  constexpr std::uint32_t kCycles = 8;
  constexpr std::uint16_t kPortBase = 29411;

  std::vector<ExecutorResult> results(2);
  std::vector<std::string> errors(2);
  std::vector<std::jthread> procs;
  for (std::uint32_t p = 0; p < 2; ++p) {
    procs.emplace_back([p, &results, &errors] {
      try {
        ProcessPartition partition{kNodes, 2};
        SocketConfig sock;
        sock.nodes = kNodes;
        sock.processes = 2;
        sock.process_index = p;
        sock.port_base = kPortBase;
        SocketTransport transport({}, sock);

        ExecutorConfig cfg = peak_config(kNodes, kCycles, 2);
        cfg.local_lo = partition.lo(p);
        cfg.local_hi = partition.hi(p);
        Executor executor(std::move(cfg), transport);
        results[p] = executor.run(failure::NoFailures());
      } catch (const std::exception& e) {
        errors[p] = e.what();
      }
    });
  }
  procs.clear();  // join

  ASSERT_EQ(errors[0], "");
  ASSERT_EQ(errors[1], "");
  EXPECT_EQ(results[0].participants + results[1].participants, kNodes);
  const double sum_initial = results[0].sum_initial + results[1].sum_initial;
  const double sum_final = results[0].sum_final + results[1].sum_final;
  EXPECT_DOUBLE_EQ(sum_initial, static_cast<double>(kNodes));
  EXPECT_DOUBLE_EQ(sum_final, sum_initial);
  EXPECT_EQ(results[0].counters.timeouts, 0u);
  EXPECT_EQ(results[1].counters.timeouts, 0u);
  // Frames actually crossed the socket: each side completed exchanges and
  // the peak (held by node 0, process 0) reached the other half.
  EXPECT_GT(results[1].sum_final, 1.0);
}

/// Every RuntimeCounters field, the conservation pair and the final
/// variance of a run, at full precision.
std::string runtime_digest(const RunResult& r) {
  const RuntimeCounters& c = r.runtime_counters;
  std::ostringstream out;
  out.precision(17);
  out << "pushes_sent=" << c.pushes_sent
      << " pushes_received=" << c.pushes_received
      << " replies_sent=" << c.replies_sent
      << " replies_received=" << c.replies_received
      << " busy_nacks=" << c.busy_nacks << " timeouts=" << c.timeouts
      << " late_replies=" << c.late_replies
      << " exchanges_completed=" << c.exchanges_completed
      << " news_exchanges=" << c.news_exchanges
      << " dropped_loss=" << c.dropped_loss
      << " dropped_dead=" << c.dropped_dead
      << " messages_sent=" << c.messages_sent
      << " messages_received=" << c.messages_received
      << " bytes_encoded=" << c.bytes_encoded
      << " bytes_decoded=" << c.bytes_decoded
      << " sum_initial=" << r.runtime_sum_initial
      << " sum_final=" << r.runtime_sum_final
      << " variance=" << r.per_cycle.back().variance();
  return out.str();
}

// With one worker on loopback every frame is handled in one order, so a
// run is a pure function of its spec: pin the whole outcome of two small
// shapes (NEWSCAST under churn and drift; a static overlay under crashes
// and loss). A change to the node or the executor that moves any counter
// shows here.
TEST(Executor, OneWorkerLoopbackRunsArePinned) {
  ScenarioSpec churn = ScenarioSpec::average_peak("golden_churn", 1000, 20)
                           .with_driver(DriverKind::kRuntime)
                           .with_seed(17)
                           .with_failure(experiment::FailureSpec::churn(10))
                           .with_drift(experiment::DriftSpec::linear(0.01));
  ScenarioSpec crash =
      ScenarioSpec::average_peak("golden_crash", 1000, 20)
          .with_driver(DriverKind::kRuntime)
          .with_seed(19)
          .with_init(experiment::InitKind::kUniform)
          .with_topology(experiment::TopologyConfig::random_k_out(20))
          .with_failure(experiment::FailureSpec::proportional_crash(0.02))
          .with_comm({0.0, 0.05});
  const std::pair<ScenarioSpec*, const char*> goldens[] = {
      {&churn,
       "pushes_sent=18054 pushes_received=18054 replies_sent=17647 "
       "replies_received=17647 busy_nacks=2908 timeouts=407 late_replies=0 "
       "exchanges_completed=14739 news_exchanges=19564 dropped_loss=0 "
       "dropped_dead=843 messages_sent=75265 messages_received=75265 "
       "bytes_encoded=15345416 bytes_decoded=15345416 sum_initial=1000 "
       "sum_final=993.7641363636526 variance=8.5330986222248271e-06"},
      {&crash,
       "pushes_sent=16366 pushes_received=15574 replies_sent=12906 "
       "replies_received=12313 busy_nacks=3010 timeouts=4053 late_replies=0 "
       "exchanges_completed=9428 news_exchanges=0 dropped_loss=1385 "
       "dropped_dead=2668 messages_sent=29272 messages_received=27887 "
       "bytes_encoded=744706 bytes_decoded=709488 "
       "sum_initial=973.77599715925123 sum_final=659.44790902194427 "
       "variance=3.1627487146356306e-06"},
  };
  experiment::Engine engine;
  for (const auto& [spec, expected] : goldens) {
    SCOPED_TRACE(spec->name);
    spec->runtime.workers = 1;
    experiment::validate(*spec);
    EXPECT_EQ(runtime_digest(engine.run_single(*spec, spec->seed)),
              expected);
  }
}

// The Engine hands runtime.latency to the transport. Each cycle settles
// only after a push and its reply have each waited at least
// delay_lo_us, so four cycles take at least 4 x 2 x 3 ms; a run whose
// latency never reached the transport finishes at loopback speed.
TEST(Executor, EngineInjectsEveryRuntimeLatency) {
  struct Case {
    RuntimeSpec::LatencyKind kind;
    std::uint32_t lo_us, hi_us;
  };
  const Case cases[] = {
      {RuntimeSpec::LatencyKind::kFixed, 3000, 0},
      {RuntimeSpec::LatencyKind::kUniform, 3000, 4000},
      {RuntimeSpec::LatencyKind::kExponential, 3000, 1000},
  };
  experiment::Engine engine;
  for (const Case& c : cases) {
    SCOPED_TRACE(experiment::to_string(c.kind));
    ScenarioSpec spec = ScenarioSpec::average_peak("latency", 50, 4)
                            .with_driver(DriverKind::kRuntime);
    spec.runtime.workers = 1;
    spec.runtime.latency = c.kind;
    spec.runtime.delay_lo_us = c.lo_us;
    spec.runtime.delay_hi_us = c.hi_us;
    const RunResult r = engine.run_single(spec, spec.seed);
    EXPECT_DOUBLE_EQ(r.runtime_sum_final, r.runtime_sum_initial);
    EXPECT_EQ(r.runtime_counters.timeouts, 0u);
    EXPECT_GE(r.elapsed_seconds, 4 * 2 * 0.003);
  }
}

// Config validation: the executor rejects malformed shapes up front.
TEST(Executor, RejectsMalformedConfig) {
  LoopbackTransport transport;
  ExecutorConfig bad = peak_config(64, 10, 2);
  bad.initial.pop_back();
  EXPECT_THROW(Executor(std::move(bad), transport), require_error);

  LoopbackTransport transport2;
  ExecutorConfig empty = peak_config(64, 10, 2);
  empty.local_lo = empty.local_hi = 0;
  EXPECT_THROW(Executor(std::move(empty), transport2), require_error);
}

}  // namespace
}  // namespace gossip::runtime
