// Cross-module integration: full protocol stacks under compound failure
// scenarios, engine-vs-engine agreement, and end-to-end storylines the
// individual module tests cannot cover.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/count.hpp"
#include "experiment/cycle_sim.hpp"
#include "experiment/engine.hpp"
#include "experiment/spec.hpp"
#include "failure/comm_failure.hpp"
#include "failure/failure_plan.hpp"
#include "proto/node.hpp"
#include "proto/wire.hpp"
#include "proto/world.hpp"
#include "stats/running_stats.hpp"
#include "stats/summary.hpp"
#include "theory/predictions.hpp"

namespace gossip {
namespace {

TEST(Integration, CompoundFailuresStillGiveUsableCounts) {
  // Churn AND message loss AND multi-instance trimming, together — the
  // §7.3 takeaway: the combined system stays within a usable band.
  experiment::ScenarioSpec spec =
      experiment::ScenarioSpec::count("integration", 4000, 30, 20)
          .with_topology(experiment::TopologyConfig::newscast(30))
          .with_comm({0.0, 0.1})
          .with_failure(experiment::FailureSpec::churn(40))
          .with_engine(experiment::EngineKind::kSerial);
  experiment::Engine engine;
  stats::RunningStats means;
  for (std::uint64_t rep = 0; rep < 4; ++rep) {
    const auto run =
        engine.run_single(spec, experiment::rep_seed(1, 99, rep));
    ASSERT_TRUE(std::isfinite(run.sizes.mean));
    means.add(run.sizes.mean);
  }
  EXPECT_GT(means.mean(), 2800.0);
  EXPECT_LT(means.mean(), 6000.0);
}

TEST(Integration, EventEngineSurvivesCrashStorm) {
  // Event-driven stack: 40% of nodes die mid-epoch while 10% of messages
  // drop; survivors keep converging and epochs keep rolling.
  proto::WorldConfig cfg;
  cfg.nodes = 400;
  cfg.seed = 5;
  cfg.p_loss = 0.1;
  cfg.protocol.cycles_per_epoch = 10;
  cfg.protocol.cache_size = 20;
  proto::World world(cfg);
  world.start();
  world.run_cycles(4);
  Rng rng(17);
  for (int k = 0; k < 160; ++k) {
    for (;;) {
      const NodeId victim(static_cast<std::uint32_t>(rng.below(400)));
      if (world.alive(victim)) {
        world.crash(victim);
        break;
      }
    }
  }
  world.run_cycles(26);
  const auto estimates = world.estimates();
  EXPECT_EQ(estimates.size(), 240u);
  // Every survivor has kept rolling epochs through the storm (estimates
  // themselves were just re-initialized by the restart, so the epoch
  // counter and the reports are the meaningful observables).
  EXPECT_EQ(world.reports().size(), 240u);
  for (std::uint32_t u = 0; u < 400; ++u) {
    if (world.alive(NodeId(u))) {
      EXPECT_GE(world.node(NodeId(u)).epoch(), 2u) << u;
    }
  }
}

TEST(Integration, JoinWaveAdoptsRunningSystem) {
  // A founding population plus a 25% join wave: the joiners must not
  // disturb the running epoch, then fully participate in the next.
  proto::WorldConfig cfg;
  cfg.nodes = 200;
  cfg.seed = 7;
  cfg.protocol.cycles_per_epoch = 12;
  proto::World world(cfg);
  world.start();
  world.run_cycles(5);
  Rng rng(23);
  std::vector<NodeId> joiners;
  for (int k = 0; k < 50; ++k) {
    const NodeId contact(static_cast<std::uint32_t>(rng.below(200)));
    joiners.push_back(world.join(contact, 3.0));
  }
  world.run_cycles(8.5);  // epoch 0 ends
  // Epoch-0 reports only come from founders and average 1.
  const auto reports = world.reports();
  EXPECT_NEAR(stats::summarize(reports).mean, 1.0, 0.1);
  // Joiners adopt epoch 1 epidemically some time within its first cycles,
  // then need a full γ of their own to produce their first report.
  world.run_cycles(16);
  for (NodeId j : joiners) {
    EXPECT_TRUE(world.node(j).participating());
    EXPECT_TRUE(world.node(j).last_report().has_value());
  }
  // Epoch 1's true average includes the joiners' 3.0 values:
  // (200·1 + 50·3)/250 = 1.4.
  const auto second = world.reports();
  EXPECT_NEAR(stats::summarize(second).mean, 1.4, 0.15);
}

TEST(Integration, WireFormatCarriesTheProtocol) {
  // Hand the encode→decode copy of every message a node returns straight
  // to its peer: the protocol must behave identically over the wire.
  proto::ProtocolConfig pcfg;
  pcfg.cache_size = 4;
  proto::Node a(NodeId(0), 4.0, pcfg);
  proto::Node b(NodeId(1), 2.0, pcfg);
  a.bootstrap_view(std::vector<membership::CacheEntry>{{NodeId(1), 0}});
  b.bootstrap_view(std::vector<membership::CacheEntry>{{NodeId(0), 0}});
  const auto wire = [](const proto::Message& m) {
    return proto::decode(proto::encode(m));
  };
  for (std::uint64_t now = 1; now <= 5; ++now) {  // 5 cycles, turns alternate
    proto::Node& active = now % 2 == 1 ? a : b;
    proto::Node& passive = now % 2 == 1 ? b : a;
    const auto news =
        passive.on_message(active.id(), wire(active.news_push(now)), now);
    ASSERT_TRUE(news.has_value());
    EXPECT_FALSE(active.on_message(passive.id(), wire(*news), now));
    const auto push = active.begin_exchange(passive.id());
    ASSERT_TRUE(push.has_value());
    const auto reply = passive.on_message(active.id(), wire(*push), now);
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(active.on_message(passive.id(), wire(*reply), now));
  }
  EXPECT_NEAR(a.estimate(), 3.0, 1e-12);
  EXPECT_NEAR(b.estimate(), 3.0, 1e-12);
  EXPECT_GT(a.stats().exchanges_completed + b.stats().exchanges_completed,
            0u);
  EXPECT_EQ(a.view().entries()[0], (membership::CacheEntry{NodeId(1), 5}));
  EXPECT_EQ(b.view().entries()[0], (membership::CacheEntry{NodeId(0), 5}));
}

TEST(Integration, EventDriverRunIsOneEpoch) {
  // The event driver runs one epoch, like every other driver: no node's
  // epoch restart may re-initialize its estimate inside the run window,
  // even when the run ends right after every node's γ-th cycle began.
  experiment::Engine engine;
  for (const std::uint32_t cycles : {30u, 31u}) {
    SCOPED_TRACE(cycles);
    experiment::ScenarioSpec spec =
        experiment::ScenarioSpec::average_peak("ev", 1000, cycles)
            .with_driver(experiment::DriverKind::kEvent)
            .with_seed(3);
    experiment::validate(spec);
    const auto run = engine.run_single(spec, spec.seed);
    ASSERT_EQ(run.per_cycle.size(), cycles + 1);
    EXPECT_LT(run.per_cycle.back().variance(), 1e-6);
    EXPECT_LT(run.sizes.variance, 1e-6);
  }
}

TEST(Integration, EventDriverStartsFromTheSharedInitialValues) {
  // Every driver starts a scalar workload from initial_values(spec, seed),
  // so the event and cycle drivers record the same initial distribution.
  experiment::ScenarioSpec event =
      experiment::ScenarioSpec::average_peak("init", 500, 5)
          .with_init(experiment::InitKind::kExponential)
          .with_driver(experiment::DriverKind::kEvent)
          .with_seed(4);
  experiment::ScenarioSpec cycle = event;
  cycle.driver = experiment::DriverKind::kCycle;
  experiment::validate(event);
  experiment::validate(cycle);
  experiment::Engine engine;
  const auto ev = engine.run_single(event, event.seed);
  const auto cy = engine.run_single(cycle, cycle.seed);
  ASSERT_FALSE(ev.per_cycle.empty());
  EXPECT_EQ(ev.per_cycle.front().count(), 500u);
  EXPECT_DOUBLE_EQ(ev.per_cycle.front().mean(), cy.per_cycle.front().mean());
  EXPECT_DOUBLE_EQ(ev.per_cycle.front().variance(),
                   cy.per_cycle.front().variance());
}

TEST(Integration, CycleAndEventEnginesAgreeOnCountAccuracy) {
  // COUNT through the cycle driver vs AVERAGE-of-peak through the event
  // engine at matched size: both recover N within a fraction of a
  // percent once converged.
  constexpr std::uint32_t kNodes = 1000;
  experiment::ScenarioSpec ccfg =
      experiment::ScenarioSpec::count("integration", kNodes, 30)
          .with_topology(experiment::TopologyConfig::newscast(20))
          .with_engine(experiment::EngineKind::kSerial);
  experiment::Engine cengine;
  const auto count = cengine.run_single(ccfg, 31);
  EXPECT_NEAR(count.sizes.mean, kNodes, 1.0);

  proto::WorldConfig wcfg;
  wcfg.nodes = kNodes;
  wcfg.seed = 37;
  wcfg.protocol.cache_size = 20;
  proto::World world(wcfg);
  world.start();
  world.run_cycles(30);
  const auto s = world.estimate_summary();
  // avg of peak = 1 ⇒ implied size = peak/avg.
  EXPECT_NEAR(core::size_from_average(s.mean, kNodes), kNodes,
              kNodes * 0.01);
}

TEST(Integration, TheoremOneHoldsOnTheEventEngine) {
  // The §6.1 variance result is engine-independent: crash half the
  // population mid-run on the event engine; the surviving mean stays an
  // unbiased estimate of 1 across repetitions.
  stats::RunningStats mu;
  for (std::uint64_t rep = 0; rep < 6; ++rep) {
    proto::WorldConfig cfg;
    cfg.nodes = 300;
    cfg.seed = 100 + rep;
    cfg.protocol.cache_size = 20;
    proto::World world(cfg);
    world.start();
    world.run_cycles(6);
    Rng rng(rep);
    for (int k = 0; k < 150; ++k) {
      for (;;) {
        const NodeId victim(static_cast<std::uint32_t>(rng.below(300)));
        if (world.alive(victim)) {
          world.crash(victim);
          break;
        }
      }
    }
    // Run past every node's epoch-0 boundary (γ=30 plus phase) and use
    // the *reports* — end-of-run estimates have been re-initialized by
    // the restart.
    world.run_cycles(26);
    const auto reports = world.reports();
    ASSERT_FALSE(reports.empty());
    mu.add(stats::summarize(reports).mean);
  }
  EXPECT_NEAR(mu.mean(), 1.0, 0.2);
  EXPECT_GT(mu.variance(), 0.0);  // crashes do scatter the mean
}

/// Every per-cycle variance (%.17g), the participant count and the final
/// mean of one run, as one comparable line.
std::string event_digest(const experiment::RunResult& run) {
  std::string out;
  char buf[64];
  for (const stats::RunningStats& s : run.per_cycle) {
    std::snprintf(buf, sizeof buf, "%.17g ", s.variance());
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "participants=%u mean=%.17g",
                run.participants, run.sizes.mean);
  return out + buf;
}

TEST(Integration, EventDriverLossyRunIsPinned) {
  // The event host's bits under 10% message loss: the loss and latency
  // draws share one network stream, so any change to its draw order, to
  // the delivery schedule or to the drop of a message at a dead
  // receiver moves these lines.
  const auto spec =
      experiment::ScenarioSpec::average_peak("lossy_event", 300, 15)
          .with_driver(experiment::DriverKind::kEvent)
          .with_comm({0.0, 0.1});
  const std::pair<std::uint64_t, const char*> goldens[] = {
      {11,
       "299.99999999999994 34.709448160535118 13.179747157272292 "
       "5.1928314078212994 2.2294036375730926 1.0383835524305634 "
       "0.46760881416049682 0.24365694326515411 0.11331410064980363 "
       "0.047633439451535101 0.020666742081140287 "
       "0.011191831869990803 0.0051179574863026538 "
       "0.0019749560898433072 0.0011176903549644016 "
       "0.00064772270225383352 participants=300 "
       "mean=0.78559430125688579"},
      {12,
       "299.99999999999994 99.380095108695613 32.147946565047569 "
       "17.52924867014066 8.5195067845840811 5.5991888096869431 "
       "1.6894077897513582 0.59102158866933197 0.26537124899378228 "
       "0.1225041600355815 0.050358743733701666 "
       "0.022994838766682572 0.012512806317850102 "
       "0.0053648483393878427 0.0023596611404734786 "
       "0.00097482068081324025 participants=300 "
       "mean=1.0221657902464909"},
  };
  experiment::Engine engine;
  for (const auto& [seed, expected] : goldens) {
    SCOPED_TRACE(seed);
    EXPECT_EQ(event_digest(engine.run_single(spec, seed)), expected);
  }
}

}  // namespace
}  // namespace gossip
