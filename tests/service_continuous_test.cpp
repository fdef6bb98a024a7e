// Continuous aggregation as a service: dynamic node values (DriftSpec),
// restart-free epoch pipelining (ServiceSpec + SnapshotStore), and the
// re-initialization hygiene both regimes depend on.
//
//  * drift_delta is a pure function of (spec, stream_seed, cycle, node):
//    bit-deterministic, zero outside its active window, and identical on
//    both engines — the cross-engine parity tests drive CycleSimulation
//    and IntraRepSimulation over shards {1,2,8} × threads {1,4} and
//    require bit-identical local values and tracking series.
//  * EpochMachine edge cases: adopt-then-stale ordering and the 64-bit
//    wraparound guard (a forged tag near 2^64 must fail loudly, not roll
//    over to epoch 0 and make every honest message stale).
//  * Combine-window staleness regression: robust-combine ring windows
//    hold reports about dead-epoch estimates at a re-initialization
//    boundary (epoch roll or §4.2 restart); if they are not flushed the
//    first post-boundary estimates are dragged toward the old epoch.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/require.hpp"
#include "core/epoch.hpp"
#include "experiment/cycle_sim.hpp"
#include "experiment/engine.hpp"
#include "experiment/intra_rep.hpp"
#include "experiment/parallel_runner.hpp"
#include "experiment/snapshot_store.hpp"
#include "experiment/spec.hpp"
#include "failure/failure_plan.hpp"

namespace gossip::experiment {
namespace {

void expect_same_bits(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << a << " vs " << b;
}

// ---------------------------------------------------------- SnapshotStore

TEST(SnapshotStore, QueryBeforeAnyPublishIsEmpty) {
  SnapshotStore store;
  EXPECT_FALSE(store.query(0, 10).has_value());
  EXPECT_EQ(store.instances(), 0u);
  EXPECT_EQ(store.published(), 0u);
}

TEST(SnapshotStore, ServesFreshestSnapshotWithAge) {
  SnapshotStore store;
  store.publish(0, 42.0, /*epoch=*/1, /*cycle=*/10);
  const auto a = store.query(0, 13);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value, 42.0);
  EXPECT_EQ(a->epoch, 1u);
  EXPECT_EQ(a->age_cycles, 3u);

  store.publish(0, 43.5, /*epoch=*/2, /*cycle=*/20);
  const auto b = store.query(0, 20);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->value, 43.5);
  EXPECT_EQ(b->epoch, 2u);
  EXPECT_EQ(b->age_cycles, 0u);
  EXPECT_EQ(store.published(), 2u);
}

TEST(SnapshotStore, IndependentInstanceLanes) {
  SnapshotStore store;
  store.publish(2, 7.0, 1, 5);
  EXPECT_EQ(store.instances(), 3u);
  EXPECT_FALSE(store.query(0, 6).has_value());
  EXPECT_FALSE(store.query(1, 6).has_value());
  ASSERT_TRUE(store.query(2, 6).has_value());
  EXPECT_EQ(store.query(2, 6)->value, 7.0);
  EXPECT_FALSE(store.query(3, 6).has_value());  // out of range, no throw
}

// ------------------------------------------------------------ EpochMachine

TEST(EpochMachine, AdoptThenStaleOrdering) {
  core::EpochMachine m(30);
  EXPECT_EQ(m.classify(0), core::EpochMachine::TagAction::kAccept);
  EXPECT_EQ(m.classify(7), core::EpochMachine::TagAction::kAdopt);
  m.adopt(7);
  // After the jump the old epoch — and everything between — is stale;
  // only 7 is current and anything newer still triggers a jump.
  EXPECT_EQ(m.epoch(), 7u);
  EXPECT_EQ(m.cycle_in_epoch(), 0u);
  EXPECT_EQ(m.classify(0), core::EpochMachine::TagAction::kStale);
  EXPECT_EQ(m.classify(6), core::EpochMachine::TagAction::kStale);
  EXPECT_EQ(m.classify(7), core::EpochMachine::TagAction::kAccept);
  EXPECT_EQ(m.classify(8), core::EpochMachine::TagAction::kAdopt);
  EXPECT_THROW(m.adopt(7), require_error);  // must be strictly newer
  EXPECT_THROW(m.adopt(3), require_error);
}

TEST(EpochMachine, AdvanceRollsExactlyAtEpochLength) {
  core::EpochMachine m(3);
  EXPECT_FALSE(m.advance_cycle());
  EXPECT_FALSE(m.advance_cycle());
  EXPECT_TRUE(m.advance_cycle());
  EXPECT_EQ(m.epoch(), 1u);
  EXPECT_EQ(m.cycle_in_epoch(), 0u);
}

TEST(EpochMachine, WraparoundGuardRefusesOverflow) {
  // A (forged or corrupted) tag near 2^64 adopts fine, but completing
  // that epoch would wrap the counter to 0 — every honest message would
  // then classify as stale forever. The machine must refuse loudly.
  core::EpochMachine m(1);
  m.adopt(~std::uint64_t{0});
  EXPECT_THROW(m.advance_cycle(), require_error);
  // The guard fires before the increment: the machine is still at the
  // adopted epoch and still classifies correctly.
  EXPECT_EQ(m.epoch(), ~std::uint64_t{0});
  EXPECT_EQ(m.classify(5), core::EpochMachine::TagAction::kStale);
}

// -------------------------------------------------------------- DriftSpec

TEST(Drift, DisabledAndPreStartCyclesProduceExactZero) {
  EXPECT_EQ(drift_delta(DriftSpec::none(), 1, 0, 0), 0.0);
  EXPECT_EQ(drift_delta(DriftSpec::linear(0.5, 10), 1, 9, 3), 0.0);
  EXPECT_EQ(drift_delta(DriftSpec::random_walk(0.5, 10), 1, 9, 3), 0.0);
  EXPECT_EQ(drift_delta(DriftSpec::step(5.0, 10), 1, 9, 3), 0.0);
  EXPECT_EQ(drift_delta(DriftSpec::step(5.0, 10), 1, 11, 3), 0.0);
}

TEST(Drift, LinearAndStepAreUniformAcrossNodes) {
  const DriftSpec lin = DriftSpec::linear(0.25, 2);
  EXPECT_EQ(drift_delta(lin, 9, 2, 0), 0.25);
  EXPECT_EQ(drift_delta(lin, 9, 100, 41), 0.25);
  const DriftSpec step = DriftSpec::step(-3.5, 4);
  EXPECT_EQ(drift_delta(step, 9, 4, 0), -3.5);
  EXPECT_EQ(drift_delta(step, 9, 4, 999), -3.5);
}

TEST(Drift, RandomWalkIsBoundedPerNodeAndBitDeterministic) {
  const DriftSpec walk = DriftSpec::random_walk(0.1);
  bool saw_distinct = false;
  double first = 0.0;
  for (std::uint32_t node = 0; node < 64; ++node) {
    const double d = drift_delta(walk, 0xfeed, 5, node);
    EXPECT_LT(std::abs(d), 0.1 + 1e-12);
    expect_same_bits(d, drift_delta(walk, 0xfeed, 5, node));  // pure
    if (node == 0) first = d;
    if (d != first) saw_distinct = true;
  }
  EXPECT_TRUE(saw_distinct);  // per-node streams, not one shared value
  // Distinct stream seeds decorrelate repetitions.
  EXPECT_NE(drift_delta(walk, 1, 5, 3), drift_delta(walk, 2, 5, 3));
}

// ---------------------------------------------- cross-engine drift parity

ScenarioSpec drift_service_spec(std::uint32_t nodes = 200) {
  ScenarioSpec spec = ScenarioSpec::average_peak("svc", nodes, 16);
  spec.init = InitKind::kUniform;
  spec.topology = TopologyConfig::newscast(10);
  spec.drift = DriftSpec::random_walk(0.05);
  spec.service = ServiceSpec::pipelined(/*epoch_cycles=*/4,
                                        /*staleness_bound=*/6);
  return spec;
}

TEST(DriftParity, LocalValuesBitIdenticalAcrossEngines) {
  // The drifted values v_u are init + Σ drift_delta — nothing else may
  // touch them, so the two engines must agree bit-for-bit even though
  // their exchange models (and hence estimates) differ.
  SimConfig cfg;
  cfg.nodes = 150;
  cfg.cycles = 12;
  cfg.topology = TopologyConfig::newscast(10);
  cfg.drift = DriftSpec::random_walk(0.05);
  cfg.stream_seed = 0xabcdef;

  CycleSimulation serial(cfg, Rng(77));
  serial.init_scalar([](NodeId u) { return 0.01 * u.value(); });
  const failure::NoFailures none;
  serial.run(none);

  IntraRepSimulation sharded(cfg, 77, /*shards=*/4);
  sharded.init_scalar([](NodeId u) { return 0.01 * u.value(); });
  ParallelRunner pool(2);
  sharded.run(none, pool);

  ASSERT_EQ(serial.local_values().size(), sharded.local_values().size());
  for (std::size_t u = 0; u < serial.local_values().size(); ++u) {
    expect_same_bits(serial.local_values()[u], sharded.local_values()[u]);
  }
}

TEST(DriftParity, IntraRepServiceInvariantAcrossShardsAndThreads) {
  // Shard and thread count are performance knobs, never semantic ones —
  // including for the new drift + pipelining surface. TSan-raced in CI.
  ScenarioSpec spec = drift_service_spec();
  spec.engine = EngineKind::kIntraRep;

  Engine reference({EngineKind::kIntraRep, 1, 1});
  const RunResult ref = reference.run_single(spec, 123);
  ASSERT_FALSE(ref.tracking_error.empty());
  ASSERT_FALSE(ref.staleness.empty());
  EXPECT_GT(ref.epochs_published, 0u);

  for (const unsigned shards : {2u, 8u}) {
    for (const unsigned threads : {1u, 4u}) {
      Engine engine({EngineKind::kIntraRep, threads, shards});
      const RunResult run = engine.run_single(spec, 123);
      ASSERT_EQ(run.per_cycle.size(), ref.per_cycle.size());
      for (std::size_t c = 0; c < ref.per_cycle.size(); ++c) {
        expect_same_bits(run.per_cycle[c].mean(), ref.per_cycle[c].mean());
        expect_same_bits(run.per_cycle[c].variance(),
                         ref.per_cycle[c].variance());
      }
      ASSERT_EQ(run.tracking_error.size(), ref.tracking_error.size());
      for (std::size_t i = 0; i < ref.tracking_error.size(); ++i) {
        expect_same_bits(run.tracking_error[i], ref.tracking_error[i]);
      }
      EXPECT_EQ(run.staleness, ref.staleness);
      EXPECT_EQ(run.epochs_published, ref.epochs_published);
    }
  }
}

TEST(DriftGolden, RandomWalkServicePipelineOnBothEngines) {
  // Exact trajectories of the drift step and the epoch roll on both
  // engines (random walk ±0.05, γ = 4 pipelined epochs). The parity
  // tests above only compare the engines with each other, so a change
  // both engines make the same way would slip past them; these goldens
  // pin each engine's own output.
  ScenarioSpec spec = drift_service_spec();
  spec.cycles = 12;
  const double serial_expected[][2] = {
      {1.0022411026008404, 0.34854060553123822},
      {1.0077310182640806, 0.13951698152983216},
      {1.0076891641228782, 0.044856742495907029},
      {1.0089281922077573, 0.012090004232522487},
      {1.0098326160514211, 0.0038879928579896523},
      {1.0124343793521215, 0.10167246324794443},
      {1.0100538189966892, 0.03455758773423704},
      {1.0092932758931172, 0.01447626835116958},
      {1.0111414748738905, 0.0069169894722840887},
      {1.0091917437107947, 0.12496345946435942},
      {1.0112499345905195, 0.032242670294126245},
      {1.0133595216809841, 0.013074257691098632},
      {1.0118609484317111, 0.0065408330222197237},
  };
  const double intra_expected[][2] = {
      {1.00224110260084, 0.34854060553123828},
      {1.0077310182640815, 0.20619326879615321},
      {1.0076891641228789, 0.12608611824635602},
      {1.0089281922077578, 0.075162540226488578},
      {1.0098326160514199, 0.045811384835186653},
      {1.0124343793521218, 0.18626983193822444},
      {1.0100538189966888, 0.11030679095670363},
      {1.0092932758931166, 0.062537003404770891},
      {1.0111414748738907, 0.035896819498546569},
      {1.0091917437107947, 0.20014136881139313},
      {1.0112499345905199, 0.12919234848404457},
      {1.0133595216809843, 0.084055754399167348},
      {1.0118609484317111, 0.049305970039472645},
  };
  const auto expect_golden = [](const RunResult& run,
                                const double (&expected)[13][2]) {
    ASSERT_EQ(run.per_cycle.size(), std::size(expected));
    for (std::size_t c = 0; c < std::size(expected); ++c) {
      EXPECT_EQ(run.per_cycle[c].mean(), expected[c][0]) << "cycle " << c;
      EXPECT_EQ(run.per_cycle[c].variance(), expected[c][1])
          << "cycle " << c;
    }
    EXPECT_EQ(run.epochs_published, 3u);
  };
  Engine serial({EngineKind::kSerial, 1, 1});
  Engine intra({EngineKind::kIntraRep, 1, 2});
  {
    SCOPED_TRACE("serial");
    expect_golden(serial.run_single(spec, 2025), serial_expected);
  }
  {
    SCOPED_TRACE("intra_rep, 2 shards");
    expect_golden(intra.run_single(spec, 2025), intra_expected);
  }
}

// ------------------------------------------------- pipelined service runs

TEST(Service, PipelinePublishesEveryEpochAndBoundsStaleness) {
  ScenarioSpec spec = drift_service_spec();
  Engine engine({EngineKind::kSerial});
  const RunResult run = engine.run_single(spec, 9);
  // 16 cycles at γ=4: four published epochs, queries served from the
  // first publication (end of cycle 3) on.
  EXPECT_EQ(run.epochs_published, 4u);
  EXPECT_EQ(run.staleness.size(), 13u);
  for (const std::uint32_t age : run.staleness) {
    EXPECT_LT(age, 4u);  // a fresh report lands every γ cycles
  }
  ASSERT_EQ(run.served_error.size(), run.staleness.size());
  for (const double e : run.served_error) {
    EXPECT_TRUE(std::isfinite(e));
  }
  // Tracking is recorded alongside every per-cycle variance snapshot.
  EXPECT_EQ(run.tracking_error.size(), run.per_cycle.size());
}

TEST(Service, TrackingFollowsLinearDriftWithinEpochLag) {
  // Under linear drift the true mean moves `rate` per cycle; pipelined
  // re-seeding must keep the converged estimate within an epoch's worth
  // of drift instead of freezing at the epoch-0 mean.
  ScenarioSpec spec = drift_service_spec(300);
  spec.cycles = 24;
  spec.drift = DriftSpec::linear(0.05);
  Engine engine({EngineKind::kSerial});
  const RunResult run = engine.run_single(spec, 4);
  ASSERT_EQ(run.tracking_error.size(), 25u);
  // 24 cycles at 0.05/cycle moves the truth by 1.2; a non-tracking
  // protocol would end 1.2 away. Allow one epoch of lag (4 * 0.05).
  EXPECT_LT(run.tracking_error.back(), 0.25);
}

// --------------------------------- combine-window flush at epoch boundary

TEST(ServiceRegression, EpochRollFlushesRobustCombineWindows) {
  // A +100 step lands on the first cycle of epoch 1. Every live value
  // and estimate jumps with it (mass-preserving drift), so the first
  // post-roll cycle must settle near 101. If the epoch roll left the
  // ring windows filled, median-of-means over {own ≈ 101} ∪ {8 stale
  // reports ≈ 1} would snap estimates back to the dead epoch's mean ≈ 1.
  ScenarioSpec spec = ScenarioSpec::average_peak("svc-flush", 128, 12);
  spec.init = InitKind::kUniform;
  spec.topology = TopologyConfig::newscast(10);
  spec.combine = CombineSpec::median_of_means(9);
  spec.service = ServiceSpec::pipelined(/*epoch_cycles=*/6,
                                        /*staleness_bound=*/8);
  spec.drift = DriftSpec::step(100.0, /*at_cycle=*/6);
  Engine engine({EngineKind::kSerial});
  const RunResult run = engine.run_single(spec, 31);
  ASSERT_EQ(run.per_cycle.size(), 13u);
  EXPECT_LT(run.per_cycle[6].mean(), 2.0);   // converged epoch 0
  EXPECT_GT(run.per_cycle[7].mean(), 90.0);  // first post-roll cycle
  EXPECT_GT(run.per_cycle.back().mean(), 90.0);
}

TEST(ServiceRegression, RestartFlushesRobustCombineWindows) {
  // The §4.2 restart path must re-seed from the initial snapshot AND
  // flush the windows: the re-seeded estimates carry the full initial
  // spread, so the first post-restart snapshot's variance jumps back
  // toward the initial variance. Stale ≈-converged reports left in the
  // windows would clamp the robust combine straight back to the old
  // consensus and erase that jump.
  ScenarioSpec spec = ScenarioSpec::average_peak("restart-flush", 128, 12);
  spec.init = InitKind::kUniform;
  spec.topology = TopologyConfig::newscast(10);
  spec.combine = CombineSpec::median_of_means(9);
  spec.failure = FailureSpec::restart(6);
  Engine engine({EngineKind::kSerial});
  const RunResult run = engine.run_single(spec, 31);
  ASSERT_EQ(run.per_cycle.size(), 13u);
  const double var0 = run.per_cycle[0].variance();
  ASSERT_GT(var0, 0.0);
  // Converged before the restart…
  EXPECT_LT(run.per_cycle[6].variance(), 0.02 * var0);
  // …and the first post-restart snapshot carries the re-seeded spread
  // (minus one cycle of mixing).
  EXPECT_GT(run.per_cycle[7].variance(), 0.05 * var0);
}

// ------------------------------------------------- lane width at 10^3-10^4

TEST(Lanes, CountWorkloadRunsAtServiceTrafficWidth) {
  // 10^3 concurrent COUNT instances through the flat [node × instance]
  // path under churn: every lane stays finite-or-inf (no corruption),
  // and the robust per-node size estimates land near N.
  ScenarioSpec spec = ScenarioSpec::count("lanes", 1000, 12, 1000);
  spec.topology = TopologyConfig::newscast(20);
  spec.failure = FailureSpec::churn_fraction(0.01);
  Engine engine({EngineKind::kSerial});
  const RunResult run = engine.run_single(spec, 77);
  ASSERT_GT(run.sizes.count, 0u);
  EXPECT_GT(run.sizes.median, 800.0);
  EXPECT_LT(run.sizes.median, 1250.0);
}

}  // namespace
}  // namespace gossip::experiment
