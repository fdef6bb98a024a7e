// The intra-rep engine's extended workload vocabulary: COUNT and
// multi-instance state carried through the matched propose/match/apply
// cycles, and multi-round matching.
//
//  * Golden values: the COUNT trajectory is pinned per match-round count
//    and must be bit-identical for every shards × threads combination —
//    shard count and thread count are performance knobs, never semantic
//    ones, for every workload the engine speaks.
//  * Leader parity: init_count_leaders consumes the boundary RNG exactly
//    as CycleSimulation's, so the same (config, seed) elects the same
//    leader set on both engines.
//  * Raced stress: heavy-churn COUNT across a wide shard × thread pool
//    for the TSan job, compared bitwise against the 1/1 reference.
//  * Key sort: the match's (key, id) scan order, checked against
//    std::stable_sort on empty, single, all-equal, extreme and large
//    inputs.
//  * Convergence: R = 3 matched rounds must bring the per-cycle factor
//    on the AVERAGE-peak workload within 1.2× of the serial driver's
//    (it currently lands well below it — see EXPERIMENTS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "experiment/cycle_sim.hpp"
#include "experiment/engine.hpp"
#include "experiment/intra_rep.hpp"
#include "experiment/parallel_runner.hpp"
#include "experiment/spec.hpp"
#include "failure/failure_plan.hpp"

namespace gossip::experiment {
namespace {

void expect_same_bits(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << a << " vs " << b;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.per_cycle.size(), b.per_cycle.size());
  for (std::size_t c = 0; c < a.per_cycle.size(); ++c) {
    EXPECT_EQ(a.per_cycle[c].count(), b.per_cycle[c].count());
    expect_same_bits(a.per_cycle[c].mean(), b.per_cycle[c].mean());
    expect_same_bits(a.per_cycle[c].variance(), b.per_cycle[c].variance());
  }
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.sizes.count, b.sizes.count);
  expect_same_bits(a.sizes.mean, b.sizes.mean);
  expect_same_bits(a.sizes.variance, b.sizes.variance);
  expect_same_bits(a.sizes.min, b.sizes.min);
  expect_same_bits(a.sizes.max, b.sizes.max);
  expect_same_bits(a.sizes.median, b.sizes.median);
}

ScenarioSpec count_spec(std::uint32_t rounds) {
  return ScenarioSpec::count("ir-count", 150, 18, 4)
      .with_topology(TopologyConfig::newscast(10))
      .with_comm({0.0, 0.1})
      .with_failure(FailureSpec::sudden_death(3, 0.25))
      .with_engine(EngineKind::kIntraRep)
      .with_match_rounds(rounds);
}

TEST(IntraRepCount, GoldenValuesAndShardThreadRoundMatrix) {
  // {mean, min, max, median} of the robust size estimates, captured at
  // shards=1, threads=1 from this implementation. One row per
  // match-round count; every shards × threads combination must
  // reproduce its row bit-for-bit.
  const double expected[][4] = {
      {239.40823225479852, 99.329805996472658, 590.41441441441441,
       201.25174810665004},
      {137.84191378504818, 106.7096154562762, 159.17973190255447,
       142.13504105906907},
      {175.54300910862116, 175.06500884475139, 176.3682163321603,
       175.47726308591405},
  };
  for (std::uint32_t rounds : {1u, 2u, 3u}) {
    const ScenarioSpec spec = count_spec(rounds);
    Engine reference({EngineKind::kIntraRep, 1, 1});
    const RunResult baseline = reference.run_single(spec, 770);
    SCOPED_TRACE(testing::Message() << "rounds=" << rounds);
    EXPECT_EQ(baseline.sizes.mean, expected[rounds - 1][0]);
    EXPECT_EQ(baseline.sizes.min, expected[rounds - 1][1]);
    EXPECT_EQ(baseline.sizes.max, expected[rounds - 1][2]);
    EXPECT_EQ(baseline.sizes.median, expected[rounds - 1][3]);
    EXPECT_EQ(baseline.participants, 113u);  // 150 - 37 sudden deaths
    for (unsigned shards : {2u, 8u}) {
      for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message()
                     << "shards=" << shards << " threads=" << threads);
        Engine engine({EngineKind::kIntraRep, threads, shards});
        expect_identical(baseline, engine.run_single(spec, 770));
      }
    }
  }
}

TEST(IntraRepCount, LeaderElectionMatchesSerialDriver) {
  // init_count_leaders draws from the boundary RNG in the same order as
  // CycleSimulation's, so (config, seed) fixes one leader set for both
  // engines — COUNT results stay attributable to the same instances.
  SimConfig cfg;
  cfg.nodes = 200;
  cfg.cycles = 5;
  cfg.instances = 6;
  cfg.topology = TopologyConfig::newscast(8);
  CycleSimulation serial_sim(cfg, Rng(4242));
  serial_sim.init_count_leaders();
  IntraRepSimulation intra_sim(cfg, 4242, 4);
  intra_sim.init_count_leaders();
  EXPECT_EQ(serial_sim.leaders(), intra_sim.leaders());
}

TEST(IntraRepCount, MultiInstanceSlotsAverageIndependently) {
  // Every instance slot conserves its own total: with no failures and
  // no losses, instance i's sum over participants stays 1.0 (the
  // leader's initial mass), for every slot.
  SimConfig cfg;
  cfg.nodes = 64;
  cfg.cycles = 10;
  cfg.instances = 3;
  cfg.topology = TopologyConfig::newscast(8);
  cfg.match_rounds = 2;
  IntraRepSimulation sim(cfg, 99, 2);
  sim.init_count_leaders();
  ParallelRunner pool(2);
  failure::NoFailures plan;
  sim.run(plan, pool);
  for (std::uint32_t i = 0; i < cfg.instances; ++i) {
    double sum = 0.0;
    for (NodeId u : sim.population().live()) sum += sim.estimate(u, i);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "instance " << i;
  }
}

TEST(IntraRepCount, RecordsEveryInstanceLane) {
  // The lane-0-only stats bug: multi-instance runs must record one
  // variance trajectory per concurrent aggregate, not just slot 0 —
  // engine parity with the serial driver, which records the same lanes.
  SimConfig cfg;
  cfg.nodes = 128;
  cfg.cycles = 12;
  cfg.instances = 4;
  cfg.topology = TopologyConfig::newscast(10);
  CycleSimulation serial_sim(cfg, Rng(321));
  serial_sim.init_count_leaders();
  IntraRepSimulation intra_sim(cfg, 321, 4);
  intra_sim.init_count_leaders();
  ASSERT_EQ(serial_sim.leaders(), intra_sim.leaders());

  failure::NoFailures plan;
  serial_sim.run(plan);
  ParallelRunner pool(2);
  intra_sim.run(plan, pool);

  const auto& serial_lanes = serial_sim.instance_cycle_stats();
  const auto& intra_lanes = intra_sim.instance_cycle_stats();
  ASSERT_EQ(serial_lanes.size(), cfg.cycles + 1u);
  ASSERT_EQ(intra_lanes.size(), cfg.cycles + 1u);
  for (std::size_t c = 0; c <= cfg.cycles; ++c) {
    ASSERT_EQ(serial_lanes[c].size(), cfg.instances);
    ASSERT_EQ(intra_lanes[c].size(), cfg.instances);
    // Lane 0 is exactly the headline per-cycle series on both engines.
    expect_same_bits(serial_lanes[c][0].mean(),
                     serial_sim.cycle_stats()[c].mean());
    expect_same_bits(intra_lanes[c][0].mean(),
                     intra_sim.cycle_stats()[c].mean());
    for (std::uint32_t i = 0; i < cfg.instances; ++i) {
      EXPECT_EQ(serial_lanes[c][i].count(), intra_lanes[c][i].count());
      // AVERAGE conserves each lane's total mass (one leader at 1.0),
      // so both engines' lane means agree to rounding — the trajectory
      // *shapes* differ (matched-cycle model), the invariant doesn't.
      EXPECT_NEAR(serial_lanes[c][i].mean(), intra_lanes[c][i].mean(),
                  1e-12)
          << "cycle " << c << " lane " << i;
    }
  }
  // Every lane genuinely converges: variance at the end is far below
  // the post-init snapshot on every lane, not just lane 0.
  for (std::uint32_t i = 0; i < cfg.instances; ++i) {
    EXPECT_LT(intra_lanes.back()[i].variance(),
              intra_lanes.front()[i].variance() / 10.0)
        << "lane " << i;
  }
}

TEST(IntraRepMatch, RacedReservationAndReductionPhases) {
  // Dedicated TSan shape for the match's parallel init and pair
  // collection, the newscast and aggregation apply passes, the segmented
  // stats reduction and kill_many's compaction: a wide shard × thread
  // pool, heavy churn (a shifting population, shards emptied between
  // cycles) on both a dynamic and a sampled topology, multi-round —
  // compared bitwise against the 1-shard/1-thread reference.
  for (const auto& topology :
       {TopologyConfig::newscast(8), TopologyConfig::complete()}) {
    ScenarioSpec spec = ScenarioSpec::average_peak("ir-match-raced", 500, 6)
                            .with_topology(topology)
                            .with_failure(FailureSpec::churn(25))
                            .with_engine(EngineKind::kIntraRep)
                            .with_match_rounds(3);
    Engine reference({EngineKind::kIntraRep, 1, 1});
    const RunResult baseline = reference.run_single(spec, 20260727);
    Engine raced({EngineKind::kIntraRep, 8, 32});
    SCOPED_TRACE(testing::Message()
                 << "kind=" << static_cast<int>(topology.kind));
    expect_identical(baseline, raced.run_single(spec, 20260727));
  }
}

TEST(IntraRepMatch, KeySortIsStableSortByKey) {
  // sort_by_key fixes the match's scan order, so check it against
  // std::stable_sort by key on the edges the goldens (N <= 600, random
  // keys) never reach. Ids run downwards from 2^32 - 2, so words with
  // equal keys are out of id order: only a stable key sort keeps them.
  const auto word = [](std::uint64_t key, std::size_t i) {
    return (key << 32) | (0xFFFFFFFEu - static_cast<std::uint32_t>(i));
  };
  constexpr std::uint64_t kMaxKey = (std::uint64_t{1} << 31) - 1;
  Rng rng(20261017);
  // Empty, one element, all keys equal, keys 0 and 2^31 - 1 mixed, and
  // 10^5 random keys.
  std::vector<std::vector<std::uint64_t>> inputs(5);
  inputs[1].push_back(word(kMaxKey, 0));
  for (std::size_t i = 0; i < 5000; ++i) {
    inputs[2].push_back(word(42, i));
    inputs[3].push_back(word(rng.chance(0.5) ? 0 : kMaxKey, i));
  }
  for (std::size_t i = 0; i < 100'000; ++i) {
    inputs[4].push_back(word(rng() >> 33, i));
  }
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    std::vector<std::uint64_t> words = inputs[k];
    std::stable_sort(inputs[k].begin(), inputs[k].end(),
                     [](std::uint64_t a, std::uint64_t b) {
                       return (a >> 32) < (b >> 32);
                     });
    std::vector<std::uint64_t> scratch;
    sort_by_key(words, scratch);
    EXPECT_EQ(words, inputs[k]) << "input " << k;
  }
}

TEST(IntraRepCount, RacedShardsUnderHeavyChurn) {
  // Stress shape for the sanitizer jobs: many shards, a big thread
  // pool, kills + joins every cycle and multi-round COUNT state, so
  // TSan sees the multi-instance propose/match/apply and kill_many
  // phases genuinely raced.
  ScenarioSpec spec = ScenarioSpec::count("ir-churn", 600, 8, 8)
                          .with_topology(TopologyConfig::newscast(10))
                          .with_failure(FailureSpec::churn(20))
                          .with_engine(EngineKind::kIntraRep)
                          .with_match_rounds(2);
  Engine reference({EngineKind::kIntraRep, 1, 1});
  const RunResult baseline = reference.run_single(spec, 4242);
  Engine raced({EngineKind::kIntraRep, 8, 16});
  expect_identical(baseline, raced.run_single(spec, 4242));
}

TEST(IntraRepRounds, SweepRacedAcrossShardThreadMatrix) {
  // The rounds axis × the execution matrix, AVERAGE under churn: every
  // round count is its own pinned trajectory, invariant over the pool.
  for (std::uint32_t rounds : {1u, 2u, 3u}) {
    ScenarioSpec spec = ScenarioSpec::average_peak("ir-rounds", 300, 6)
                            .with_topology(TopologyConfig::newscast(10))
                            .with_failure(FailureSpec::churn(10))
                            .with_engine(EngineKind::kIntraRep)
                            .with_match_rounds(rounds);
    Engine reference({EngineKind::kIntraRep, 1, 1});
    const RunResult baseline = reference.run_single(spec, 7);
    for (unsigned shards : {2u, 8u}) {
      for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "rounds=" << rounds
                                        << " shards=" << shards
                                        << " threads=" << threads);
        Engine engine({EngineKind::kIntraRep, threads, shards});
        expect_identical(baseline, engine.run_single(spec, 7));
      }
    }
  }
}

TEST(IntraRepRounds, ThreeRoundsWithinBoundOfSerialFactor) {
  // The convergence criterion of the multi-round lift: R=3 brings the
  // per-cycle factor on the AVERAGE-peak NEWSCAST workload within 1.2×
  // of the serial driver's (measurements land well below the bound —
  // ratio ≈ 0.6 — so this is loose by design, not flaky).
  for (std::uint64_t seed : {1ull, 7ull}) {
    ScenarioSpec spec = ScenarioSpec::average_peak("ir-factor", 2000, 20)
                            .with_topology(TopologyConfig::newscast(30));
    Engine serial_engine({EngineKind::kSerial});
    const RunResult serial = serial_engine.run_single(spec, seed);
    spec.with_engine(EngineKind::kIntraRep).with_match_rounds(3);
    Engine intra_engine({EngineKind::kIntraRep, 2, 2});
    const RunResult intra = intra_engine.run_single(spec, seed);

    const double serial_factor = serial.tracker.mean_factor(20);
    const double intra_factor = intra.tracker.mean_factor(20);
    SCOPED_TRACE(testing::Message()
                 << "seed=" << seed << " serial=" << serial_factor
                 << " intra(R=3)=" << intra_factor);
    EXPECT_LE(intra_factor, 1.2 * serial_factor);
    // Sanity on the serial reference itself: ≈ 1/(2√e) ≈ 0.303.
    EXPECT_GT(serial_factor, 0.25);
    EXPECT_LT(serial_factor, 0.40);
  }
}

TEST(IntraRepRounds, MoreRoundsConvergeFaster) {
  // The factor must improve monotonically in R on the AVERAGE-peak
  // workload — each extra matching mixes strictly more.
  double previous = 1.0;
  for (std::uint32_t rounds : {1u, 2u, 3u}) {
    ScenarioSpec spec = ScenarioSpec::average_peak("ir-mono", 2000, 20)
                            .with_topology(TopologyConfig::newscast(30))
                            .with_engine(EngineKind::kIntraRep)
                            .with_match_rounds(rounds);
    Engine engine({EngineKind::kIntraRep, 1, 1});
    const double factor =
        engine.run_single(spec, 7).tracker.mean_factor(20);
    SCOPED_TRACE(testing::Message() << "rounds=" << rounds);
    EXPECT_LT(factor, previous);
    previous = factor;
  }
}

}  // namespace
}  // namespace gossip::experiment
