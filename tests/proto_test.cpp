// Tests for src/proto: the sans-I/O node of §4's "practical protocol"
// driven directly (NACKs, join gating, stale epochs, late replies, the
// non-atomic ablation), then hosted by the event-driven World —
// convergence under real delays, timeouts against crashed peers, a
// crashed node's silence, epoch restart and epidemic epoch
// synchronization, join gating, the 1+Poisson(1) exchange distribution,
// determinism by seed, and agreement with the cycle driver's convergence
// factor.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "proto/node.hpp"
#include "proto/world.hpp"
#include "stats/running_stats.hpp"
#include "theory/predictions.hpp"

namespace gossip::proto {
namespace {

// ---- the node alone: no loop, no network ---------------------------------

ProtocolConfig node_config(std::uint32_t cycles_per_epoch = 30) {
  ProtocolConfig cfg;
  cfg.cycles_per_epoch = cycles_per_epoch;
  cfg.cache_size = 4;
  return cfg;
}

/// The aggregation reply a node returned (throws if it returned another).
AggReply agg_reply(const std::optional<Message>& message) {
  GOSSIP_REQUIRE(message.has_value(), "node returned no reply");
  return std::get<AggReply>(*message);
}

TEST(ProtoNode, PendingNodeNacksAndTheNackFreesTheInitiator) {
  Node a(NodeId(0), 4.0, node_config());
  Node b(NodeId(1), 2.0, node_config());
  ASSERT_TRUE(b.begin_exchange(NodeId(2)));  // b's own exchange is pending
  const auto push = a.begin_exchange(NodeId(1));
  ASSERT_TRUE(push);
  const AggReply nack = agg_reply(b.on_message(NodeId(0), *push, 0));
  EXPECT_TRUE(nack.refused);
  EXPECT_EQ(b.estimate(), 2.0);
  EXPECT_EQ(b.stats().busy_nacks, 1u);
  EXPECT_FALSE(a.on_message(NodeId(1), nack, 0));
  // The initiator is free at once: no timeout, no estimate change, and it
  // may start its next exchange right away.
  EXPECT_FALSE(a.pending());
  EXPECT_EQ(a.estimate(), 4.0);
  EXPECT_EQ(a.stats().replies_received, 1u);
  EXPECT_EQ(a.stats().timeouts, 0u);
  EXPECT_TRUE(a.begin_exchange(NodeId(2)));
}

TEST(ProtoNode, JoinerNacksTheEpochItSitsOutAndServesTheNext) {
  Node founder(NodeId(0), 4.0, node_config(2));
  Node joiner(NodeId(1), 2.0, node_config(2), /*contact_epoch=*/0);
  EXPECT_FALSE(joiner.participating());
  EXPECT_FALSE(joiner.begin_exchange(NodeId(0)));
  auto push = founder.begin_exchange(NodeId(1));
  ASSERT_TRUE(push);
  const AggReply nack = agg_reply(joiner.on_message(NodeId(0), *push, 0));
  EXPECT_TRUE(nack.refused);
  EXPECT_EQ(joiner.stats().busy_nacks, 1u);
  founder.on_message(NodeId(1), nack, 0);
  EXPECT_EQ(founder.estimate(), 4.0);
  EXPECT_EQ(joiner.estimate(), 2.0);

  for (int c = 0; c < 2; ++c) {  // both roll into epoch 1
    founder.end_cycle();
    joiner.end_cycle();
  }
  EXPECT_EQ(founder.epoch(), 1u);
  EXPECT_TRUE(joiner.participating());
  push = founder.begin_exchange(NodeId(1));
  ASSERT_TRUE(push);
  const AggReply reply = agg_reply(joiner.on_message(NodeId(0), *push, 0));
  EXPECT_FALSE(reply.refused);
  founder.on_message(NodeId(1), reply, 0);
  EXPECT_EQ(founder.estimate(), 3.0);
  EXPECT_EQ(joiner.estimate(), 3.0);
}

TEST(ProtoNode, StalePushIsRefusedWithTheNewerEpochWhichTheInitiatorAdopts) {
  Node laggard(NodeId(0), 4.0, node_config(2));
  Node ahead(NodeId(1), 2.0, node_config(2));
  ahead.end_cycle();
  ahead.end_cycle();
  ASSERT_EQ(ahead.epoch(), 1u);
  laggard.end_cycle();  // one cycle into epoch 0
  const auto push = laggard.begin_exchange(NodeId(1));
  ASSERT_TRUE(push);
  EXPECT_EQ(push->epoch, 0u);
  const AggReply refusal = agg_reply(ahead.on_message(NodeId(0), *push, 0));
  EXPECT_TRUE(refusal.refused);
  EXPECT_EQ(refusal.epoch, 1u);
  EXPECT_EQ(ahead.stats().refusals_sent, 1u);
  EXPECT_EQ(ahead.estimate(), 2.0);
  laggard.on_message(NodeId(1), refusal, 0);
  EXPECT_EQ(laggard.epoch(), 1u);
  EXPECT_EQ(laggard.stats().epochs_adopted, 1u);
  EXPECT_FALSE(laggard.pending());
  // The preempted epoch reported its estimate (§4.1).
  EXPECT_EQ(laggard.last_report(), 4.0);
}

TEST(ProtoNode, ReplyAfterTimeoutIsLateAndChangesNoEstimate) {
  Node a(NodeId(0), 4.0, node_config());
  Node b(NodeId(1), 2.0, node_config());
  const auto push = a.begin_exchange(NodeId(1));
  ASSERT_TRUE(push);
  const auto reply = b.on_message(NodeId(0), *push, 0);
  ASSERT_TRUE(reply);
  a.on_timeout(push->request_id);
  EXPECT_EQ(a.stats().timeouts, 1u);
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(a.on_message(NodeId(1), *reply, 0));
  EXPECT_EQ(a.estimate(), 4.0);
  EXPECT_EQ(a.stats().late_replies, 1u);
  EXPECT_EQ(a.stats().exchanges_completed, 0u);
  a.on_timeout(push->request_id);  // a stale timer is a no-op
  EXPECT_EQ(a.stats().timeouts, 1u);
}

TEST(ProtoNode, NonAtomicPendingNodeServesThePush) {
  ProtocolConfig cfg = node_config();
  cfg.atomic_exchanges = false;
  Node a(NodeId(0), 4.0, cfg);
  Node b(NodeId(1), 2.0, cfg);
  ASSERT_TRUE(b.begin_exchange(NodeId(2)));
  const auto push = a.begin_exchange(NodeId(1));
  ASSERT_TRUE(push);
  const AggReply reply = agg_reply(b.on_message(NodeId(0), *push, 0));
  EXPECT_FALSE(reply.refused);
  EXPECT_EQ(reply.value, 2.0);
  EXPECT_EQ(b.estimate(), 3.0);
  EXPECT_EQ(b.stats().busy_nacks, 0u);
}

// ---- hosted by the event-driven world -----------------------------------

WorldConfig small_world(std::uint32_t n, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.nodes = n;
  cfg.seed = seed;
  cfg.protocol.cache_size = 20;
  return cfg;
}

TEST(ProtoWorld, ConvergesToTrueAverage) {
  World w(small_world(300, 7));
  w.start();
  w.run_cycles(25);
  const auto s = w.estimate_summary();
  EXPECT_EQ(s.count, 300u);
  EXPECT_NEAR(s.mean, 1.0, 0.02);
  EXPECT_NEAR(s.min, 1.0, 0.05);
  EXPECT_NEAR(s.max, 1.0, 0.05);
}

TEST(ProtoWorld, VarianceDropsExponentially) {
  World w(small_world(500, 11));
  w.start();
  const double v0 = w.estimate_summary().variance;
  w.run_cycles(10);
  const double v10 = w.estimate_summary().variance;
  EXPECT_LT(v10, v0 * 1e-3);
}

TEST(ProtoWorld, ConvergenceFactorNearCycleDriver) {
  // Cross-engine agreement: the event engine (random phases, real
  // delays) must land in the same factor regime as the cycle driver,
  // between 1/(2√e) and 1/e (§6.2's two pairing models bracket it).
  stats::RunningStats factors;
  for (std::uint64_t seed : {13ull, 14ull, 15ull}) {
    World w(small_world(600, seed));
    w.start();
    w.run_cycles(2);  // settle phases
    const double va = w.estimate_summary().variance;
    w.run_cycles(10);
    const double vb = w.estimate_summary().variance;
    factors.add(std::pow(vb / va, 1.0 / 10.0));
  }
  EXPECT_GT(factors.mean(), theory::push_pull_factor() - 0.05);
  EXPECT_LT(factors.mean(), theory::uniform_pairing_factor() + 0.07);
}

TEST(ProtoWorld, ExchangeCountIsOnePlusPoissonOne) {
  // §4.5: per cycle a node initiates exactly one exchange and receives a
  // Poisson(1)-distributed number of pushes — mean 2 exchanges total.
  World w(small_world(800, 17));
  w.start();
  w.run_cycles(20);
  stats::RunningStats received, initiated;
  for (std::uint32_t u = 0; u < w.size(); ++u) {
    const auto& st = w.node(NodeId(u)).stats();
    received.add(static_cast<double>(st.pushes_received) / 20.0);
    initiated.add(static_cast<double>(st.pushes_sent) / 20.0);
  }
  EXPECT_NEAR(initiated.mean(), 1.0, 0.06);  // exactly one per cycle
  EXPECT_NEAR(received.mean(), 1.0, 0.05);
  // Poisson(1) per cycle would give variance 1/20 for a 20-cycle mean;
  // newscast views are not perfectly uniform samplers, so the in-degree
  // is overdispersed — accept a band around the ideal.
  EXPECT_GT(received.variance(), 0.02);
  EXPECT_LT(received.variance(), 0.2);
}

TEST(ProtoWorld, CrashedPeerCausesTimeoutsNotHangs) {
  World w(small_world(50, 19));
  w.start();
  w.run_cycles(3);
  for (std::uint32_t u = 10; u < 35; ++u) w.crash(NodeId(u));
  w.run_cycles(10);
  std::uint64_t timeouts = 0;
  for (std::uint32_t u = 0; u < 10; ++u) {
    timeouts += w.node(NodeId(u)).stats().timeouts;
  }
  EXPECT_GT(timeouts, 0u);  // dead peers were contacted and timed out
  // Survivors still converge among themselves (mass of the dead is lost,
  // but estimates keep contracting).
  const auto s = w.estimate_summary();
  EXPECT_EQ(s.count, 25u);
  EXPECT_LT(s.variance, 1.0);
}

TEST(ProtoWorld, EpochRestartsProduceReports) {
  WorldConfig cfg = small_world(200, 23);
  cfg.protocol.cycles_per_epoch = 15;
  World w(cfg);
  w.start();
  w.run_cycles(16.5);  // past the first epoch boundary at every node
  const auto reports = w.reports();
  EXPECT_EQ(reports.size(), 200u);
  // The first epoch's report is the converged average ≈ 1. Residual
  // spread after γ=15 cycles: σ ≈ sqrt(σ0²·ρ^15) ≈ 0.03 — allow 5σ.
  for (double r : reports) EXPECT_NEAR(r, 1.0, 0.15);
  // All nodes rolled into epoch 1.
  for (std::uint32_t u = 0; u < 200; ++u) {
    EXPECT_EQ(w.node(NodeId(u)).epoch(), 1u) << u;
  }
}

TEST(ProtoWorld, SecondEpochAggregatesFreshValues) {
  // Adaptivity (§4.1): values change after epoch 0; epoch 1's report
  // reflects the new values, not the stale ones.
  WorldConfig cfg = small_world(200, 29);
  cfg.protocol.cycles_per_epoch = 12;
  World w(cfg);
  w.start();
  w.run_cycles(6);
  for (std::uint32_t u = 0; u < 200; ++u) {
    w.node(NodeId(u)).set_local_value(5.0);  // world shifted mid-epoch
  }
  w.run_cycles(19);  // finish epoch 0 (+6) and all of epoch 1 (+12), slack 1
  const auto reports = w.reports();
  ASSERT_FALSE(reports.empty());
  for (double r : reports) EXPECT_NEAR(r, 5.0, 0.1);
}

TEST(ProtoWorld, LaggardAdoptsNewerEpochEpidemically) {
  // §4.3: a node that missed the epoch roll jumps as soon as it hears a
  // higher epoch id.
  WorldConfig cfg = small_world(100, 31);
  cfg.protocol.cycles_per_epoch = 5;
  World w(cfg);
  w.start();
  w.run_cycles(30);
  stats::RunningStats adoption;
  std::uint64_t max_epoch = 0, min_epoch = ~0ull;
  for (std::uint32_t u = 0; u < 100; ++u) {
    const auto& n = w.node(NodeId(u));
    max_epoch = std::max(max_epoch, n.epoch());
    min_epoch = std::min(min_epoch, n.epoch());
    adoption.add(static_cast<double>(n.stats().epochs_adopted));
  }
  // Despite random phases the network stays epoch-synchronized within 1.
  EXPECT_LE(max_epoch - min_epoch, 1u);
}

TEST(ProtoWorld, JoinerSitsOutThenParticipates) {
  WorldConfig cfg = small_world(120, 37);
  cfg.protocol.cycles_per_epoch = 12;
  World w(cfg);
  w.start();
  w.run_cycles(3);
  const NodeId fresh = w.join(NodeId(0), /*local_value=*/100.0);
  EXPECT_FALSE(w.node(fresh).participating());
  // Its 100.0 must NOT leak into the running epoch's average (true
  // avg 1); a leak would pull the report mean toward 1 + 100/121 ≈ 1.8.
  w.run_cycles(10.5);  // completes epoch 0 at every founder
  const auto reports = w.reports();
  ASSERT_FALSE(reports.empty());
  EXPECT_NEAR(stats::summarize(reports).mean, 1.0, 0.15);
  for (double r : reports) EXPECT_NEAR(r, 1.0, 0.5);
  // After the roll it participates.
  w.run_cycles(12);
  EXPECT_TRUE(w.node(fresh).participating());
  EXPECT_GT(w.node(fresh).stats().exchanges_completed, 0u);
}

TEST(ProtoWorld, MessageLossOnlyDegradesGracefully) {
  WorldConfig cfg = small_world(300, 41);
  cfg.p_loss = 0.1;
  World w(cfg);
  w.start();
  w.run_cycles(25);
  const auto s = w.estimate_summary();
  // Converged (tightly clustered) but the mean drifts off 1: response
  // loss changes the sum (§7.2), and with a peak workload an early loss
  // can carry a large fraction of the whole mass. "Reasonable range" is
  // the paper's own wording for this regime.
  EXPECT_LT(s.max - s.min, 0.2);
  EXPECT_GT(s.mean, 0.3);
  EXPECT_LT(s.mean, 3.0);
}

TEST(ProtoWorld, MinAndMaxBroadcastEpidemically) {
  for (const auto kind : {UpdateKind::kMin, UpdateKind::kMax}) {
    WorldConfig cfg = small_world(200, 43);
    cfg.protocol.update = kind;
    cfg.initial_value = [](NodeId id) {
      return static_cast<double>(id.value() + 1);
    };
    World w(cfg);
    w.start();
    w.run_cycles(15);
    const auto s = w.estimate_summary();
    const double expected = kind == UpdateKind::kMin ? 1.0 : 200.0;
    EXPECT_DOUBLE_EQ(s.min, expected);
    EXPECT_DOUBLE_EQ(s.max, expected);
  }
}

TEST(ProtoWorld, GeometricMeanConverges) {
  WorldConfig cfg = small_world(200, 47);
  cfg.protocol.update = UpdateKind::kGeometric;
  cfg.initial_value = [](NodeId id) { return id.value() % 2 == 0 ? 4.0 : 1.0; };
  World w(cfg);
  w.start();
  w.run_cycles(25);
  const auto s = w.estimate_summary();
  EXPECT_NEAR(s.mean, 2.0, 0.05);  // sqrt(4*1)
  EXPECT_LT(s.max - s.min, 0.1);
}

TEST(ProtoWorld, CrashedNodeFallsSilent) {
  // A crashed node neither sends nor receives: its δ timer and timeouts
  // stop and messages in flight to it are dropped at delivery, so its
  // counters freeze, while the live nodes keep exchanging (and time out
  // on the pushes the dead node never answers).
  World w(small_world(100, 59));
  w.start();
  w.run_cycles(3.5);  // mid-cycle: messages to the victim are in flight
  const NodeId victim(7);
  w.crash(victim);
  const Node::Stats frozen = w.node(victim).stats();
  const auto live_totals = [&w, victim] {
    std::uint64_t completed = 0, timeouts = 0;
    for (std::uint32_t u = 0; u < w.size(); ++u) {
      if (NodeId(u) == victim) continue;
      completed += w.node(NodeId(u)).stats().exchanges_completed;
      timeouts += w.node(NodeId(u)).stats().timeouts;
    }
    return std::pair{completed, timeouts};
  };
  const auto [completed_before, timeouts_before] = live_totals();
  w.run_cycles(6);
  EXPECT_EQ(w.node(victim).stats(), frozen);
  EXPECT_FALSE(w.alive(victim));
  const auto [completed_after, timeouts_after] = live_totals();
  EXPECT_GT(completed_after, completed_before);
  EXPECT_GT(timeouts_after, timeouts_before);
  EXPECT_THROW(w.crash(victim), require_error);  // already dead
}

TEST(ProtoWorld, DeterministicBySeed) {
  // One seed, one run, under loss, crashes and a join: every node's
  // estimate bits and counters and the number of events executed agree.
  struct Run {
    std::vector<std::uint64_t> estimate_bits;
    std::vector<Node::Stats> stats;
    std::uint64_t executed = 0;
  };
  const auto run_once = [] {
    WorldConfig cfg = small_world(150, 51);
    cfg.p_loss = 0.1;
    World w(cfg);
    w.start();
    w.run_cycles(4.5);
    for (std::uint32_t u = 20; u < 50; ++u) w.crash(NodeId(u));
    w.join(NodeId(3), 2.0);
    w.run_cycles(8);
    Run run;
    for (std::uint32_t u = 0; u < w.size(); ++u) {
      const Node& node = w.node(NodeId(u));
      run.estimate_bits.push_back(
          std::bit_cast<std::uint64_t>(node.estimate()));
      run.stats.push_back(node.stats());
    }
    run.executed = w.loop().executed();
    return run;
  };
  const Run a = run_once();
  const Run b = run_once();
  EXPECT_EQ(a.estimate_bits.size(), 151u);
  EXPECT_EQ(a.estimate_bits, b.estimate_bits);
  EXPECT_TRUE(a.stats == b.stats);
  EXPECT_EQ(a.executed, b.executed);
}

TEST(ProtoWorld, NewscastViewStaysFreshUnderCrashes) {
  World w(small_world(200, 53));
  w.start();
  w.run_cycles(5);
  for (std::uint32_t u = 100; u < 200; ++u) w.crash(NodeId(u));
  w.run_cycles(15);
  // Live nodes' views should reference mostly live peers again.
  std::size_t stale = 0, total = 0;
  for (std::uint32_t u = 0; u < 100; ++u) {
    for (const auto& e : w.node(NodeId(u)).view().entries()) {
      ++total;
      stale += e.id.value() >= 100 ? 1 : 0;
    }
  }
  EXPECT_LT(static_cast<double>(stale) / static_cast<double>(total), 0.05);
}

TEST(ProtoWorld, Guards) {
  EXPECT_THROW(World(small_world(1, 1)), require_error);
  World w(small_world(10, 57));
  EXPECT_THROW((void)w.node(NodeId(10)), require_error);
  w.start();
  w.crash(NodeId(3));
  EXPECT_THROW(w.join(NodeId(3), 0.0), require_error);
}

}  // namespace
}  // namespace gossip::proto
