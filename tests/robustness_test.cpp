// The adversarial-failure vocabulary end to end: correlated kill waves
// through the drivers' targeted kill_range primitive (with the ≥1
// survivor guarantee), partitions as an exchange filter that heals,
// §4.2 epoch restarts, byzantine value injection, and the robust
// combine rules (§7.3 trimmed mean generalized to exchange combining,
// plus median-of-means) that bound the injected bias where the paper's
// plain pairwise mean diverges.
//
// The bias-bounding thresholds are deliberately loose against the
// measured values (mean bias ≈ 93, trimmed ≈ 8, median-of-means ≈ 0.4
// at N = 400, 10% injectors reporting 100): they assert the *ordering*
// and the order-of-magnitude gaps, not exact trajectories.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "experiment/cycle_sim.hpp"
#include "experiment/engine.hpp"
#include "experiment/intra_rep.hpp"
#include "experiment/parallel_runner.hpp"
#include "experiment/spec.hpp"
#include "failure/failure_plan.hpp"
#include "overlay/population.hpp"

namespace gossip::experiment {
namespace {

void expect_same_bits(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << a << " vs " << b;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.per_cycle.size(), b.per_cycle.size());
  for (std::size_t c = 0; c < a.per_cycle.size(); ++c) {
    EXPECT_EQ(a.per_cycle[c].count(), b.per_cycle[c].count()) << "cycle " << c;
    expect_same_bits(a.per_cycle[c].mean(), b.per_cycle[c].mean());
    expect_same_bits(a.per_cycle[c].variance(), b.per_cycle[c].variance());
  }
  EXPECT_EQ(a.participants, b.participants);
}

double final_bias(const RunResult& run) {
  return std::abs(run.per_cycle.back().mean() - run.per_cycle.front().mean());
}

// ------------------------------------------------- kill_range primitive

TEST(KillRange, KillsAscendingIdsWithinBudget) {
  // The serial kill_range and the batch kill_range_batch (the intra-rep
  // engine's and the runtime executor's) kill the same ids.
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "kill_range_batch" : "kill_range");
    overlay::Population pop(10);
    pop.kill(NodeId(3));
    const auto kill_range = [&pop, batch](std::uint32_t lo, std::uint32_t hi,
                                          std::uint32_t max_kills) {
      return batch ? pop.kill_range_batch(lo, hi, max_kills)
                   : pop.kill_range(lo, hi, max_kills);
    };
    // Range [2, 8) holds live ids 2,4,5,6,7; budget 3 takes the lowest 3.
    EXPECT_EQ(kill_range(2, 8, 3), 3u);
    for (std::uint32_t id = 0; id < 10; ++id) {
      const bool expect_dead = id == 3 || id == 2 || id == 4 || id == 5;
      EXPECT_EQ(pop.alive(NodeId(id)), !expect_dead) << id;
    }
    EXPECT_EQ(kill_range(0, 10, 0), 0u);   // zero budget
    EXPECT_EQ(kill_range(6, 6, 10), 0u);   // empty range
    EXPECT_EQ(kill_range(2, 6, 10), 0u);   // already dead
    EXPECT_EQ(pop.live_count(), 6u);
  }
}

/// Kills id 9, then the id block [4, 20) — a block that already holds a
/// dead id — then every id, which the keep-one-alive budget cuts short.
class ScriptedRangeKills final : public failure::FailurePlan {
public:
  failure::CycleEvent before_cycle(std::uint32_t cycle,
                                   std::uint32_t) const override {
    if (cycle == 0) return {.kill_lo = 9, .kill_hi = 10};
    if (cycle == 1) return {.kill_lo = 4, .kill_hi = 20};
    return {.kill_lo = 0, .kill_hi = 32};
  }
};

TEST(KillRange, IntraRepMatchesSerialVictimSet) {
  // The serial driver swap-removes each victim; the intra-rep engine
  // retires the same ascending ids through Population::kill_many's
  // stable compaction. Live order differs, the victim set must not — for
  // any shard count, and when the budget stops a block early.
  const ScriptedRangeKills plan;
  const auto survivors = [](const auto& sim) {
    std::vector<NodeId> ids = sim.participants();
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  std::vector<NodeId> after_two_cycles;
  for (std::uint32_t id = 0; id < 32; ++id) {
    if (id < 4 || id >= 20) after_two_cycles.emplace_back(id);
  }
  ParallelRunner pool(4);
  for (std::uint32_t cycles : {2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "cycles=" << cycles);
    const std::vector<NodeId> expected =
        cycles == 2 ? after_two_cycles : std::vector<NodeId>{NodeId(31)};
    SimConfig config;
    config.nodes = 32;
    config.cycles = cycles;
    config.topology = TopologyConfig::complete();
    CycleSimulation serial(config, Rng(3));
    serial.init_peak(32.0);
    serial.run(plan);
    EXPECT_EQ(survivors(serial), expected);
    for (unsigned shards : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards);
      IntraRepSimulation intra(config, 3, shards);
      intra.init_peak(32.0);
      intra.run(plan, pool);
      EXPECT_EQ(survivors(intra), expected);
    }
  }
}

// --------------------------------------- overkill clamp (≥ 1 survivor)

TEST(OverkillClamp, ConstantCrashBeyondPopulationLeavesOneSurvivor) {
  // constant_crash rate far above N: the drivers clamp each cycle's kill
  // budget to live - 1 instead of tripping the population invariants.
  ScenarioSpec spec = ScenarioSpec::average_peak("overkill", 16, 6)
                          .with_topology(TopologyConfig::newscast(4))
                          .with_failure(FailureSpec::constant_crash(1000))
                          .with_engine(EngineKind::kSerial);
  Engine engine({EngineKind::kSerial, 1, 1});
  const RunResult run = engine.run_single(spec, 2024);
  EXPECT_EQ(run.participants, 1u);
  EXPECT_EQ(run.per_cycle.back().count(), 1u);
}

TEST(OverkillClamp, IntraRepHonorsTheSameGuarantee) {
  ScenarioSpec spec = ScenarioSpec::average_peak("overkill", 16, 6)
                          .with_topology(TopologyConfig::newscast(4))
                          .with_failure(FailureSpec::constant_crash(1000))
                          .with_engine(EngineKind::kIntraRep);
  Engine reference({EngineKind::kIntraRep, 1, 1});
  const RunResult baseline = reference.run_single(spec, 2024);
  EXPECT_EQ(baseline.participants, 1u);
  for (unsigned shards : {2u, 8u}) {
    Engine engine({EngineKind::kIntraRep, 4, shards});
    expect_identical(baseline, engine.run_single(spec, 2024));
  }
}

TEST(OverkillClamp, CorrelatedWavesBudgetStopsAtLastSurvivor) {
  // 4 waves of ⌊20 · 0.4⌋ = 8 ids would cover the whole network; the
  // third wave hits the budget and leaves exactly one survivor — the
  // highest id, since waves kill ascending id blocks. The live runtime
  // spends the same budget (one loopback worker, zero loss).
  for (DriverKind driver : {DriverKind::kCycle, DriverKind::kRuntime}) {
    SCOPED_TRACE(to_string(driver));
    ScenarioSpec spec = ScenarioSpec::average_peak("waves", 20, 6)
                            .with_topology(TopologyConfig::newscast(5))
                            .with_failure(
                                FailureSpec::correlated_waves(0, 4, 0.4))
                            .with_driver(driver)
                            .with_engine(EngineKind::kSerial);
    Engine engine({EngineKind::kSerial, 1, 1});
    const RunResult run = engine.run_single(spec, 7);
    EXPECT_EQ(run.participants, 1u);
    EXPECT_EQ(run.per_cycle.back().count(), 1u);
  }
}

TEST(CorrelatedWaves, KillExactlyTheScheduledBlocks) {
  // Trigger 2, 3 waves × ⌊100 · 0.15⌋ = 15 ids: 45 targeted kills, no
  // collateral — the live count afterwards is exact.
  ScenarioSpec spec = ScenarioSpec::average_peak("waves", 100, 8)
                          .with_topology(TopologyConfig::newscast(10))
                          .with_failure(
                              FailureSpec::correlated_waves(2, 3, 0.15))
                          .with_engine(EngineKind::kSerial);
  Engine engine({EngineKind::kSerial, 1, 1});
  const RunResult run = engine.run_single(spec, 11);
  EXPECT_EQ(run.participants, 100u - 45u);
  EXPECT_EQ(run.per_cycle.back().count(), 55u);
}

// ----------------------------------------------- partition with heal

TEST(Partition, ComponentsStayExactlyIsolatedWhilePartitioned) {
  // Bimodal init (0 / 2 by id parity) with a 2-component partition
  // (component = id % 2) held for the whole run: every exchange either
  // straddles components (dropped) or averages two equal values, so the
  // per-cycle statistics never move a single bit.
  ScenarioSpec spec = ScenarioSpec::average_peak("part", 64, 10)
                          .with_init(InitKind::kBimodal)
                          .with_topology(TopologyConfig::newscast(8))
                          .with_failure(FailureSpec::partition(0, 10, 2))
                          .with_engine(EngineKind::kSerial);
  Engine engine({EngineKind::kSerial, 1, 1});
  const RunResult run = engine.run_single(spec, 5);
  ASSERT_EQ(run.per_cycle.size(), 11u);
  for (std::size_t c = 1; c < run.per_cycle.size(); ++c) {
    expect_same_bits(run.per_cycle[c].mean(), run.per_cycle[0].mean());
    expect_same_bits(run.per_cycle[c].variance(),
                     run.per_cycle[0].variance());
  }
}

TEST(Partition, HealRestoresConvergence) {
  // Partitioned for cycles 0..4, healed afterwards: the variance is
  // frozen at its initial value through the partition, then collapses.
  ScenarioSpec spec = ScenarioSpec::average_peak("heal", 64, 20)
                          .with_init(InitKind::kBimodal)
                          .with_topology(TopologyConfig::newscast(8))
                          .with_failure(FailureSpec::partition(0, 5, 2))
                          .with_engine(EngineKind::kSerial);
  Engine engine({EngineKind::kSerial, 1, 1});
  const RunResult run = engine.run_single(spec, 5);
  expect_same_bits(run.per_cycle[5].variance(), run.per_cycle[0].variance());
  EXPECT_GT(run.per_cycle[0].variance(), 0.9);
  // 15 healed cycles at this small scale: ~3 orders of magnitude down.
  EXPECT_LT(run.per_cycle.back().variance(),
            run.per_cycle[0].variance() / 100.0);
}

// --------------------------------------------------- §4.2 epoch restart

TEST(Restart, VarianceReRisesAtEveryPeriod) {
  ScenarioSpec spec = ScenarioSpec::average_peak("restart", 128, 12)
                          .with_topology(TopologyConfig::newscast(8))
                          .with_failure(FailureSpec::restart(5))
                          .with_engine(EngineKind::kSerial);
  Engine engine({EngineKind::kSerial, 1, 1});
  const RunResult run = engine.run_single(spec, 17);
  ASSERT_EQ(run.per_cycle.size(), 13u);
  // Restarts fire before cycles 5 and 10 (0-based): the stats recorded
  // after those cycles (indices 6 and 11) jump back toward the initial
  // variance after converging for five cycles.
  // (The second window has only four converged cycles behind it, so its
  // jump is smaller — 3× is comfortably above any non-restart step.)
  EXPECT_GT(run.per_cycle[6].variance(), 10.0 * run.per_cycle[5].variance());
  EXPECT_GT(run.per_cycle[11].variance(),
            3.0 * run.per_cycle[10].variance());
  // The restart re-seeds the *initial* values: the mean is preserved.
  EXPECT_NEAR(run.per_cycle[6].mean(), run.per_cycle[0].mean(), 1e-9);
}

// ------------------------------------------------- byzantine adversary

TEST(Byzantine, MembershipIsAPureIdHash) {
  const AdversarySpec adv = AdversarySpec::value_inject(0.2, 100.0);
  std::uint32_t byz = 0;
  for (std::uint32_t id = 0; id < 10000; ++id) byz += adv.is_byzantine(id);
  EXPECT_NEAR(static_cast<double>(byz), 2000.0, 120.0);
  // Stable across copies, and the disabled spec marks nobody.
  const AdversarySpec copy = adv;
  for (std::uint32_t id = 0; id < 100; ++id) {
    EXPECT_EQ(adv.is_byzantine(id), copy.is_byzantine(id));
    EXPECT_FALSE(AdversarySpec::none().is_byzantine(id));
  }
}

TEST(Byzantine, HonestStatisticsExcludeAdversaries) {
  const AdversarySpec adv = AdversarySpec::value_inject(0.2, 100.0);
  std::uint32_t honest = 0;
  for (std::uint32_t id = 0; id < 200; ++id) honest += !adv.is_byzantine(id);
  ScenarioSpec spec = ScenarioSpec::average_peak("honest", 200, 4)
                          .with_init(InitKind::kUniform)
                          .with_topology(TopologyConfig::newscast(10))
                          .with_adversary(adv)
                          .with_engine(EngineKind::kSerial);
  Engine engine({EngineKind::kSerial, 1, 1});
  const RunResult run = engine.run_single(spec, 3);
  ASSERT_LT(honest, 200u);
  for (const auto& cycle : run.per_cycle) {
    EXPECT_EQ(cycle.count(), honest);
  }
}

TEST(Byzantine, RobustCombineBoundsInjectedBias) {
  // The acceptance claim: 10% injectors reporting 100 into a [0, 2)
  // uniform population. The plain mean is captured by the adversary;
  // trimmed_mean(0.25) bounds the drift an order of magnitude lower;
  // median_of_means at the pure-median limit (groups = window + 1)
  // pins the honest mean to well under one unit.
  ScenarioSpec base = ScenarioSpec::average_peak("bias", 400, 30)
                          .with_init(InitKind::kUniform)
                          .with_topology(TopologyConfig::newscast(30))
                          .with_adversary(
                              AdversarySpec::value_inject(0.1, 100.0))
                          .with_engine(EngineKind::kSerial);
  Engine engine({EngineKind::kSerial, 1, 1});

  ScenarioSpec mean_spec = base;
  ScenarioSpec trimmed_spec = base;
  trimmed_spec.combine = CombineSpec::trimmed_mean(0.25);
  ScenarioSpec mom_spec = base;
  mom_spec.combine = CombineSpec::median_of_means(9);

  const double mean_bias = final_bias(engine.run_single(mean_spec, 910));
  const double trimmed_bias =
      final_bias(engine.run_single(trimmed_spec, 920));
  const double mom_bias = final_bias(engine.run_single(mom_spec, 930));

  EXPECT_GT(mean_bias, 30.0);                 // measured ≈ 93
  EXPECT_LT(trimmed_bias, 20.0);              // measured ≈ 8
  EXPECT_LT(trimmed_bias, mean_bias / 3.0);
  EXPECT_LT(mom_bias, 5.0);                   // measured ≈ 0.4
  EXPECT_LT(mom_bias, trimmed_bias);
}

TEST(Byzantine, SerialAndIntraRepBothBoundTheBias) {
  // The two engines run their own matched-cycle models, so trajectories
  // differ — but the byzantine membership (a pure id hash) and the
  // shared robust combine must bound the bias in both, and the honest
  // population they report statistics over is identical.
  ScenarioSpec spec = ScenarioSpec::average_peak("parity", 400, 30)
                          .with_init(InitKind::kUniform)
                          .with_topology(TopologyConfig::newscast(30))
                          .with_adversary(
                              AdversarySpec::value_inject(0.1, 100.0))
                          .with_combine(CombineSpec::trimmed_mean(0.25));
  Engine serial({EngineKind::kSerial, 1, 1});
  Engine intra({EngineKind::kIntraRep, 4, 4});
  const RunResult s = serial.run_single(spec, 920);
  const RunResult p = intra.run_single(spec, 920);
  EXPECT_EQ(s.per_cycle.front().count(), p.per_cycle.front().count());
  EXPECT_LT(final_bias(s), 20.0);
  EXPECT_LT(final_bias(p), 20.0);
}

TEST(Byzantine, GeometryInvarianceWithRobustCombineAndPartition) {
  // The full adversarial stack — byzantine injectors, a healing
  // partition and a robust combine — stays bit-identical across every
  // shards × threads geometry of the intra-rep engine.
  ScenarioSpec spec = ScenarioSpec::average_peak("geo", 300, 12)
                          .with_init(InitKind::kUniform)
                          .with_topology(TopologyConfig::newscast(10))
                          .with_failure(FailureSpec::partition(2, 4, 3))
                          .with_adversary(
                              AdversarySpec::value_inject(0.15, 50.0))
                          .with_combine(CombineSpec::trimmed_mean(0.25))
                          .with_engine(EngineKind::kIntraRep);
  Engine reference({EngineKind::kIntraRep, 1, 1});
  const RunResult baseline = reference.run_single(spec, 4711);
  for (unsigned shards : {2u, 8u}) {
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      Engine engine({EngineKind::kIntraRep, threads, shards});
      expect_identical(baseline, engine.run_single(spec, 4711));
    }
  }
}

TEST(AdversarialGolden, ValueInjectMedianOfMeansHealingPartition) {
  // Exact trajectories of the byzantine/robust receive path on both
  // engines: 10% injectors, median-of-means over 3 groups, and a
  // 2-component partition over cycles 2..5 that heals. Bound tests and
  // cross-engine checks cannot see a change both engines make the same
  // way; these goldens can.
  ScenarioSpec spec = ScenarioSpec::average_peak("golden-adv", 200, 12)
                          .with_init(InitKind::kUniform)
                          .with_topology(TopologyConfig::newscast(10))
                          .with_failure(FailureSpec::partition(2, 4, 2))
                          .with_adversary(
                              AdversarySpec::value_inject(0.1, 100.0))
                          .with_combine(CombineSpec::median_of_means(3));
  const double serial_expected[][2] = {
      {1.0000730198202237, 0.36452279844044427},
      {6.9991024590055915, 234.78709745734602},
      {7.7951712526266448, 271.62186247552927},
      {9.7396640505174954, 251.40146592422886},
      {10.96465639047665, 242.5269714180634},
      {11.85980800317007, 212.43629256729355},
      {13.730742727800012, 242.75320100753271},
      {16.168845943603994, 207.33716440796368},
      {19.299924319084063, 207.30847635184136},
      {21.135882900251726, 176.63569250433727},
      {24.047293805931258, 206.28081289341358},
      {26.587449583517547, 215.40561486296838},
      {28.957495512839213, 296.61028448652604},
  };
  const double intra_expected[][2] = {
      {1.0000730198202239, 0.36452279844044416},
      {5.6464123892195364, 210.21799874797935},
      {7.4438640393352564, 349.88738738884007},
      {7.4470488204631078, 349.84907382460079},
      {7.8544809956907047, 388.19393734248371},
      {8.165881804847885, 383.36145148535172},
      {8.5769871676848002, 394.96460565216773},
      {9.4338935726430933, 404.26795392694748},
      {8.5855246747674219, 272.5849883254175},
      {9.5346322326105888, 228.33368846837021},
      {10.697329157879587, 250.84982588064972},
      {12.122606793907062, 227.02211108083398},
      {13.177978726314995, 196.86677838874166},
  };
  const auto expect_golden = [](const RunResult& run,
                                const double (&expected)[13][2]) {
    ASSERT_EQ(run.per_cycle.size(), std::size(expected));
    for (std::size_t c = 0; c < std::size(expected); ++c) {
      EXPECT_EQ(run.per_cycle[c].mean(), expected[c][0]) << "cycle " << c;
      EXPECT_EQ(run.per_cycle[c].variance(), expected[c][1])
          << "cycle " << c;
    }
    EXPECT_EQ(run.participants, 181u);
  };
  Engine serial({EngineKind::kSerial, 1, 1});
  Engine intra({EngineKind::kIntraRep, 1, 2});
  {
    SCOPED_TRACE("serial");
    expect_golden(serial.run_single(spec, 2024), serial_expected);
  }
  {
    SCOPED_TRACE("intra_rep, 2 shards");
    expect_golden(intra.run_single(spec, 2024), intra_expected);
  }
}

TEST(AdversarialGolden, CachePolluteSerialVarianceDigest) {
  // The serial driver's cache_pollute path: run_cycle sends each pair
  // with a polluter through exchange_partial, and churn adds joins.
  // One FNV-1a digest over the bits of every per-cycle variance (the
  // benchmark's digest), so any change to a NEWSCAST merge path shows.
  ScenarioSpec spec = ScenarioSpec::average_peak("golden-pollute", 300, 15)
                          .with_init(InitKind::kUniform)
                          .with_topology(TopologyConfig::newscast(20))
                          .with_failure(FailureSpec::churn(3))
                          .with_adversary(AdversarySpec::cache_pollute(0.15))
                          .with_engine(EngineKind::kSerial);
  Engine serial({EngineKind::kSerial, 1, 1});
  const RunResult run = serial.run_single(spec, 1618);
  std::uint64_t h = kFnvOffsetBasis;
  for (const double v : run.tracker.variances()) {
    auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= bits & 0xffu;
      h *= kFnvPrime;
      bits >>= 8;
    }
  }
  ASSERT_EQ(run.tracker.variances().size(), 16u);
  EXPECT_EQ(h, 0x8a6bcb72423b5b24ull);
  EXPECT_EQ(run.participants, 259u);
}

// ------------------------------------------- robust combine unit tests

TEST(RobustCombine, TrimmedMeanOverOwnPlusWindow) {
  const CombineSpec combine = CombineSpec::trimmed_mean(0.25, 4);
  std::vector<double> window(4, 0.0), scratch, means;
  std::uint8_t wfill[1] = {0}, wpos[1] = {0};
  // Partial window: nothing trimmed until {own} ∪ window has 4 entries.
  EXPECT_DOUBLE_EQ(robust_combine_receive(combine, 0, 2.0, 10.0, window,
                                          wfill, wpos, scratch, means),
                   6.0);  // mean(2, 10)
  EXPECT_DOUBLE_EQ(robust_combine_receive(combine, 0, 2.0, 20.0, window,
                                          wfill, wpos, scratch, means),
                   32.0 / 3.0);  // mean(2, 10, 20)
  // {2, 10, 20, 30}: ⌊0.25 · 4⌋ = 1 dropped per side → mean(10, 20).
  EXPECT_DOUBLE_EQ(robust_combine_receive(combine, 0, 2.0, 30.0, window,
                                          wfill, wpos, scratch, means),
                   15.0);
}

TEST(RobustCombine, MedianOfMeansAtThePureMedianLimit) {
  // groups = window + 1 makes every group a singleton: the combine is
  // the exact median of {own} ∪ window, and the ring evicts oldest-first.
  const CombineSpec combine = CombineSpec::median_of_means(5, 4);
  std::vector<double> window(4, 0.0), scratch, means;
  std::uint8_t wfill[1] = {0}, wpos[1] = {0};
  double out = 0.0;
  for (double report : {1.0, 100.0, 2.0, 3.0}) {
    out = robust_combine_receive(combine, 0, 0.0, report, window, wfill,
                                 wpos, scratch, means);
  }
  EXPECT_DOUBLE_EQ(out, 2.0);  // median of {0, 1, 100, 2, 3}
  out = robust_combine_receive(combine, 0, 0.0, 4.0, window, wfill, wpos,
                               scratch, means);
  EXPECT_DOUBLE_EQ(out, 3.0);  // 1 evicted: median of {0, 100, 2, 3, 4}
}

// --------------------------------------------- sanitizer stress shape
//
// Partition filter + byzantine behavior + churn, raced across a big
// shard × thread grid — the shape the TSan CI job runs to see the
// adversarial paths genuinely contended. The bit-equality against the
// 1×1 reference doubles as the determinism assertion.

TEST(RobustnessStress, RacedPartitionByzantineChurn) {
  ScenarioSpec spec = ScenarioSpec::average_peak("stress", 600, 8)
                          .with_init(InitKind::kUniform)
                          .with_topology(TopologyConfig::newscast(10))
                          .with_failure(FailureSpec::partition(1, 4, 4))
                          .with_adversary(
                              AdversarySpec::value_inject(0.1, 50.0))
                          .with_combine(CombineSpec::trimmed_mean(0.25))
                          .with_engine(EngineKind::kIntraRep);
  failure::Churn churn(20);
  Engine reference({EngineKind::kIntraRep, 1, 1});
  const RunResult baseline = reference.run_single(spec, 31415, &churn);
  failure::Churn churn_again(20);
  Engine raced({EngineKind::kIntraRep, 8, 16});
  expect_identical(baseline, raced.run_single(spec, 31415, &churn_again));
}

TEST(RobustnessStress, RacedCachePollutionUnderMedianOfMeans) {
  ScenarioSpec spec = ScenarioSpec::average_peak("pollute", 400, 8)
                          .with_init(InitKind::kUniform)
                          .with_topology(TopologyConfig::newscast(12))
                          .with_adversary(AdversarySpec::cache_pollute(0.15))
                          .with_combine(CombineSpec::median_of_means(3, 8))
                          .with_engine(EngineKind::kIntraRep);
  Engine reference({EngineKind::kIntraRep, 1, 1});
  const RunResult baseline = reference.run_single(spec, 2718);
  Engine raced({EngineKind::kIntraRep, 8, 16});
  expect_identical(baseline, raced.run_single(spec, 2718));
}

}  // namespace
}  // namespace gossip::experiment
