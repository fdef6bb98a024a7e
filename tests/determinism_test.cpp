// Determinism guarantees of the experiment engine.
//
//  * Golden values: CycleSimulation results at small N are pinned to the
//    exact doubles the simulator produced before the scratch-buffer and
//    SoA-cache-pool refactor — the hot-path optimizations must not
//    change a single bit of any published figure.
//  * Thread-count invariance: the ParallelRunner merges per-rep results
//    in rep order, so the same seed yields identical output for 1, 2 and
//    8 worker threads.
//  * ParallelRunner mechanics: index-ordered map, pool reuse across
//    batches, exception propagation, split-seed derivation.
//  * Engine-facade determinism: the same ScenarioSpec executed with
//    engine = serial and rep_parallel (1/2/8 threads) produces
//    bit-identical RunResults, and the intra-rep engine is invariant
//    across every shards x threads combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/stream_salt.hpp"
#include "experiment/cycle_sim.hpp"
#include "experiment/engine.hpp"
#include "experiment/intra_rep.hpp"
#include "experiment/parallel_runner.hpp"
#include "experiment/spec.hpp"
#include "failure/failure_plan.hpp"
#include "overlay/population.hpp"

namespace gossip::experiment {
namespace {

// ------------------------------------------------------------- goldens
//
// Captured from the seed implementation (vector<NewscastCache> storage,
// per-cycle order allocations) at full double precision.

TEST(GoldenValues, AverageUnderChurnOnNewscast) {
  ScenarioSpec spec = ScenarioSpec::average_peak("golden", 64, 12)
                          .with_topology(TopologyConfig::newscast(8))
                          .with_failure(FailureSpec::churn(3))
                          .with_engine(EngineKind::kSerial);
  Engine engine;
  const RunResult run = engine.run_single(spec, 12345);

  const double expected[][2] = {
      {1.0000000000000007, 63.999999999999986},
      {1.0491803278688521, 13.114207650273221},
      {1.1034482758620692, 5.236429444097852},
      {1.1090909090909091, 4.0386557110230923},
      {1.148399939903846, 3.0309214304042587},
      {1.0904882812500001, 0.90398243583640803},
      {1.0751238883809844, 0.5023063153878361},
      {1.0836293507706034, 0.2786159901123294},
      {1.0830719321966171, 0.22501772256971989},
      {1.0895031029131355, 0.17059394090376628},
      {1.1055755259958695, 0.12828696865734604},
      {1.1096672766442151, 0.11482929479653822},
      {1.106508705090578, 0.090650351690037434},
  };
  ASSERT_EQ(run.per_cycle.size(), std::size(expected));
  for (std::size_t c = 0; c < std::size(expected); ++c) {
    EXPECT_EQ(run.per_cycle[c].mean(), expected[c][0]) << "cycle " << c;
    EXPECT_EQ(run.per_cycle[c].variance(), expected[c][1]) << "cycle " << c;
  }
}

TEST(GoldenValues, CountUnderLossAndSuddenDeathOnNewscast) {
  ScenarioSpec spec = ScenarioSpec::count("golden", 50, 15, 4)
                          .with_topology(TopologyConfig::newscast(6))
                          .with_comm({0.0, 0.1})
                          .with_failure(FailureSpec::sudden_death(4, 0.2))
                          .with_engine(EngineKind::kSerial);
  Engine engine;
  const RunResult run = engine.run_single(spec, 777);

  EXPECT_EQ(run.sizes.mean, 53.317370145213985);
  EXPECT_EQ(run.sizes.min, 39.874218245408372);
  EXPECT_EQ(run.sizes.max, 69.281370517376303);
  EXPECT_EQ(run.sizes.median, 50.766800575081241);
  EXPECT_EQ(run.participants, 40u);
}

TEST(GoldenValues, AverageUnderProportionalCrashOnKOut) {
  ScenarioSpec spec = ScenarioSpec::average_peak("golden", 40, 10)
                          .with_topology(TopologyConfig::random_k_out(5))
                          .with_failure(FailureSpec::proportional_crash(0.05))
                          .with_engine(EngineKind::kSerial);
  Engine engine;
  const RunResult run = engine.run_single(spec, 99);

  EXPECT_EQ(run.per_cycle.back().mean(), 1.1794175772831357);
  EXPECT_EQ(run.per_cycle.back().variance(), 0.084835512286016407);
}

// Every lane of a multi-instance COUNT run, not just lane 0: one FNV-1a
// digest per engine over the bits of (count, mean, variance, min, max) of
// every lane at every snapshot, then every size_estimates() value. The
// digests were captured from the scalar per-lane loops and full-sort
// trimmed mean the shared lane kernels replaced. An odd lane count
// exercises the vectorized loops' scalar tails; message loss takes the
// response-lost branch of the exchange.
std::uint64_t lane_digest(const SimulationCore& sim) {
  std::uint64_t h = kFnvOffsetBasis;
  const auto mix = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= kFnvPrime;
    }
  };
  for (const auto& snapshot : sim.instance_cycle_stats()) {
    for (const stats::RunningStats& lane : snapshot) {
      mix(lane.count());
      for (double x : {lane.mean(), lane.variance(), lane.min(), lane.max()}) {
        mix(std::bit_cast<std::uint64_t>(x));
      }
    }
  }
  for (double size : sim.size_estimates()) {
    mix(std::bit_cast<std::uint64_t>(size));
  }
  return h;
}

TEST(GoldenValues, CountLaneDigestUnderChurnOnBothEngines) {
  SimConfig cfg;
  cfg.nodes = 400;
  cfg.cycles = 12;
  cfg.instances = 37;
  cfg.topology = TopologyConfig::newscast(10);
  cfg.comm = failure::CommFailureModel::message_loss(0.05);
  const failure::Churn plan(4);

  CycleSimulation serial(cfg, Rng(2024));
  serial.init_count_leaders();
  serial.run(plan);
  ASSERT_EQ(serial.instance_cycle_stats().size(), cfg.cycles + 1u);
  EXPECT_EQ(lane_digest(serial), 0x1fe5ed69d1f04508ull);

  IntraRepSimulation intra(cfg, 2024, 2);
  intra.init_count_leaders();
  ParallelRunner pool(2);
  intra.run(plan, pool);
  ASSERT_EQ(intra.instance_cycle_stats().size(), cfg.cycles + 1u);
  EXPECT_EQ(lane_digest(intra), 0x6b5f7178f1b9d588ull);
}

// --------------------------------------------- thread-count invariance

/// Bit-level double equality: the determinism contract is "identical
/// bits", which must also hold for runs that legitimately diverge to
/// inf/NaN (an EXPECT_EQ on NaN would always fail). For NaN that holds
/// within one binary only: which NaN an operation on two NaNs returns
/// follows the compiler's operand order, so RunningStats::add and
/// LaneStats give NaNs of different sign at -O2 and the same at -O3. No
/// golden holds a NaN.
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
    expect_same_bits(a.per_cycle[c].min(), b.per_cycle[c].min());
    expect_same_bits(a.per_cycle[c].max(), b.per_cycle[c].max());
  }
  ASSERT_EQ(a.tracker.variances().size(), b.tracker.variances().size());
  for (std::size_t c = 0; c < a.tracker.variances().size(); ++c) {
    expect_same_bits(a.tracker.variances()[c], b.tracker.variances()[c]);
  }
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.sizes.count, b.sizes.count);
  expect_same_bits(a.sizes.mean, b.sizes.mean);
  expect_same_bits(a.sizes.variance, b.sizes.variance);
  expect_same_bits(a.sizes.min, b.sizes.min);
  expect_same_bits(a.sizes.max, b.sizes.max);
  expect_same_bits(a.sizes.median, b.sizes.median);
}

TEST(ParallelDeterminism, AverageRepsIdenticalAcrossThreadCounts) {
  constexpr std::uint32_t kReps = 12;
  ScenarioSpec spec = ScenarioSpec::average_peak("det", 200, 8)
                          .with_topology(TopologyConfig::newscast(10))
                          .with_failure(FailureSpec::churn(2))
                          .with_reps(kReps)
                          .with_seed(0x5eed)
                          .with_seed_point(7);

  Engine serial({EngineKind::kSerial});
  const auto baseline = serial.run_point(spec, 0);
  ASSERT_EQ(baseline.size(), kReps);

  for (unsigned threads : {1u, 2u, 8u}) {
    Engine parallel_engine({EngineKind::kRepParallel, threads});
    const auto parallel = parallel_engine.run_point(spec, 0);
    ASSERT_EQ(parallel.size(), kReps);
    for (std::uint32_t r = 0; r < kReps; ++r) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " rep=" << r);
      expect_identical(baseline[r], parallel[r]);
    }
  }
}

TEST(ParallelDeterminism, CountRepsIdenticalAcrossThreadCounts) {
  constexpr std::uint32_t kReps = 10;
  ScenarioSpec spec = ScenarioSpec::count("det", 150, 10, 3)
                          .with_topology(TopologyConfig::newscast(8))
                          .with_comm({0.0, 0.05})
                          .with_reps(kReps)
                          .with_seed(42)
                          .with_seed_point(3);

  Engine serial({EngineKind::kSerial});
  const auto baseline = serial.run_point(spec, 0);

  for (unsigned threads : {1u, 2u, 8u}) {
    Engine parallel_engine({EngineKind::kRepParallel, threads});
    const auto parallel = parallel_engine.run_point(spec, 0);
    ASSERT_EQ(parallel.size(), kReps);
    for (std::uint32_t r = 0; r < kReps; ++r) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " rep=" << r);
      expect_identical(baseline[r], parallel[r]);
    }
  }
}

// ------------------------------------------- batched population kills
//
// The intra-rep engine retires each cycle's crashes through
// Population::kill_many; its output is shard-invariant only if the
// compaction's result depends on the victim set alone.

TEST(Population, KillManyIsStableAndChunkCountInvariant) {
  // kill_many's stable compaction: survivors keep their relative order,
  // and the result is identical for any chunk count and for serial vs
  // pooled execution of the passes.
  const auto build = [] {
    overlay::Population pop(30);
    pop.kill(NodeId(7));  // pre-churn so live order isn't just 0..29
    pop.kill(NodeId(2));
    (void)pop.add();
    return pop;
  };
  const std::vector<NodeId> victims{NodeId(0), NodeId(29), NodeId(15),
                                    NodeId(30), NodeId(4)};

  auto reference = build();
  const std::vector<NodeId> before = reference.live();
  reference.kill_many(victims);
  // Stability: the reference result is exactly `before` minus victims.
  std::vector<NodeId> expected;
  for (NodeId id : before) {
    if (std::find(victims.begin(), victims.end(), id) == victims.end()) {
      expected.push_back(id);
    }
  }
  EXPECT_EQ(reference.live(), expected);

  ParallelRunner pool(4);
  const overlay::ParallelFor par =
      [&pool](std::size_t count,
              const std::function<void(std::size_t)>& job) {
        pool.run(count, job);
      };
  for (unsigned chunks : {2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "chunks=" << chunks);
    auto pop = build();
    pop.kill_many(victims, chunks, &par);
    EXPECT_EQ(pop.live(), reference.live());
    for (std::uint32_t u = 0; u < pop.total(); ++u) {
      EXPECT_EQ(pop.alive(NodeId(u)), reference.alive(NodeId(u)));
    }
  }
}

// --------------------------------------------- intra-rep mode goldens
//
// The domain-decomposed engine has its own pinned trajectory (its
// matched-cycle model is deliberately not bit-comparable with the serial
// driver), and that trajectory must be bit-identical for every
// shard × thread-count combination.

TEST(IntraRepDeterminism, GoldenValuesAndShardCountInvariance) {
  ScenarioSpec spec = ScenarioSpec::average_peak("intra", 64, 10)
                          .with_topology(TopologyConfig::newscast(8))
                          .with_failure(FailureSpec::churn(3))
                          .with_engine(EngineKind::kIntraRep);

  Engine serial({EngineKind::kIntraRep, 1, 1});
  const RunResult baseline = serial.run_single(spec, 12345);

  const double expected[][2] = {
      // {mean, variance} per cycle at shards=1, threads=1: the greedy
      // match scan in (per-round priority key, id) order, segmented stats
      // folded through the fixed-shape reduction tree. A parallel
      // deterministic-reservations match recorded these values; the key
      // order scan commits the same pairs and reproduces them bit for
      // bit.
      {1.0, 64.0},
      {1.0491803278688525, 33.014207650273221},
      {0.55172413793103448, 8.6727162734422265},
      {0.2857142857142857, 2.244155844155844},
      {0.30188679245283018, 1.1378809869375908},
      {0.31999999999999995, 0.54857142857142849},
      {0.29166666666666663, 0.33865248226950351},
      {0.28260869565217389, 0.22946859903381644},
      {0.29545454545454547, 0.16939746300211417},
      {0.29761904761904762, 0.15697590011614404},
      {0.30182926829268297, 0.15779344512195123},
  };
  ASSERT_EQ(baseline.per_cycle.size(), std::size(expected));
  for (std::size_t c = 0; c < std::size(expected); ++c) {
    EXPECT_EQ(baseline.per_cycle[c].mean(), expected[c][0]) << "cycle " << c;
    EXPECT_EQ(baseline.per_cycle[c].variance(), expected[c][1])
        << "cycle " << c;
  }

  for (unsigned shards : {2u, 8u}) {
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      Engine engine({EngineKind::kIntraRep, threads, shards});
      expect_identical(baseline, engine.run_single(spec, 12345));
    }
  }
}

TEST(IntraRepDeterminism, CompleteTopologySuddenDeathInvariance) {
  ScenarioSpec spec = ScenarioSpec::average_peak("intra", 300, 8)
                          .with_topology(TopologyConfig::complete())
                          .with_comm({0.0, 0.1})
                          .with_failure(FailureSpec::sudden_death(3, 0.4))
                          .with_engine(EngineKind::kIntraRep);

  Engine serial({EngineKind::kIntraRep, 1, 1});
  const RunResult baseline = serial.run_single(spec, 777);
  for (unsigned shards : {2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    Engine engine({EngineKind::kIntraRep, 4, shards});
    expect_identical(baseline, engine.run_single(spec, 777));
  }
}

TEST(IntraRepDeterminism, DegenerateShardGeometrySurvivesMassCrash) {
  // Shards > N, and shards left without a single live node after a
  // fig06a-style mass death (75% of an N=8 network dies at once): the
  // run must neither crash nor let the emptied shards skew the match
  // scan — output stays bit-identical to the 1-shard reference.
  for (const auto& topology :
       {TopologyConfig::newscast(4), TopologyConfig::complete()}) {
    ScenarioSpec spec = ScenarioSpec::average_peak("degenerate", 8, 6)
                            .with_topology(topology)
                            .with_failure(FailureSpec::sudden_death(1, 0.75))
                            .with_engine(EngineKind::kIntraRep);
    Engine reference({EngineKind::kIntraRep, 1, 1});
    const RunResult baseline = reference.run_single(spec, 31337);
    EXPECT_EQ(baseline.per_cycle.back().count(), 2u);  // 8 - 6 survivors
    for (unsigned shards : {8u, 16u}) {  // == N and > N
      SCOPED_TRACE(testing::Message()
                   << "kind=" << static_cast<int>(topology.kind)
                   << " shards=" << shards);
      Engine engine({EngineKind::kIntraRep, 4, shards});
      expect_identical(baseline, engine.run_single(spec, 31337));
    }
  }
}

TEST(IntraRepDeterminism, RacedShardsUnderHeavyChurn) {
  // Stress shape for the sanitizer jobs: many shards, a big thread pool,
  // kills + joins every cycle, so TSan sees the propose/match/apply and
  // kill_many phases genuinely raced.
  ScenarioSpec spec = ScenarioSpec::average_peak("intra", 600, 6)
                          .with_topology(TopologyConfig::newscast(10))
                          .with_failure(FailureSpec::churn(20))
                          .with_engine(EngineKind::kIntraRep);

  Engine serial({EngineKind::kIntraRep, 1, 1});
  const RunResult baseline = serial.run_single(spec, 4242);
  Engine raced_engine({EngineKind::kIntraRep, 8, 16});
  expect_identical(baseline, raced_engine.run_single(spec, 4242));
}

// ------------------------------------------- spec-level engine sweep
//
// The satellite determinism contract of the ScenarioSpec API: one spec,
// every engine the spec is eligible for, bit-identical output (intra_rep
// against its own reference — its matched-cycle model is a different
// trajectory from the serial driver by design).

TEST(EngineFacade, FullSweepIdenticalAcrossEngineAndThreads) {
  ScenarioSpec spec = ScenarioSpec::count("det-sweep", 120, 8, 2)
                          .with_topology(TopologyConfig::newscast(8))
                          .with_failure(FailureSpec::churn_fraction(0.01))
                          .with_comm({0.1, 0.05})
                          .with_reps(5)
                          .with_seed(0xfeed);
  spec.with_sweep(SweepAxis::kChurnFraction,
                  {{0.0, 11, ""}, {0.01, 12, ""}, {0.02, 13, ""}});

  Engine serial({EngineKind::kSerial});
  const ScenarioResult baseline = serial.run(spec);
  ASSERT_EQ(baseline.points.size(), 3u);

  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    Engine parallel_engine({EngineKind::kRepParallel, threads});
    const ScenarioResult parallel = parallel_engine.run(spec);
    ASSERT_EQ(parallel.points.size(), baseline.points.size());
    for (std::size_t p = 0; p < baseline.points.size(); ++p) {
      ASSERT_EQ(parallel.points[p].reps.size(),
                baseline.points[p].reps.size());
      for (std::size_t r = 0; r < baseline.points[p].reps.size(); ++r) {
        expect_identical(baseline.points[p].reps[r],
                         parallel.points[p].reps[r]);
      }
    }
  }
}

TEST(EngineFacade, IntraRepPointIdenticalAcrossShardThreadMatrix) {
  // Same spec, engine=intra_rep, multi-rep sweep point: reps run in
  // order, each internally decomposed — identical for every shards x
  // threads combination.
  ScenarioSpec spec = ScenarioSpec::average_peak("det-intra", 100, 6)
                          .with_topology(TopologyConfig::newscast(8))
                          .with_reps(3)
                          .with_seed(0xabcdef)
                          .with_seed_point(5)
                          .with_engine(EngineKind::kIntraRep);

  Engine reference({EngineKind::kIntraRep, 1, 1});
  const auto baseline = reference.run_point(spec, 0);
  ASSERT_EQ(baseline.size(), 3u);
  for (unsigned shards : {2u, 8u}) {
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      Engine engine({EngineKind::kIntraRep, threads, shards});
      const auto runs = engine.run_point(spec, 0);
      ASSERT_EQ(runs.size(), baseline.size());
      for (std::size_t r = 0; r < runs.size(); ++r) {
        expect_identical(baseline[r], runs[r]);
      }
    }
  }
}

TEST(EngineFacade, AutoPicksRepParallelForMultiRep) {
  ScenarioSpec spec = ScenarioSpec::average_peak("auto", 100, 4)
                          .with_reps(4);
  EXPECT_EQ(resolve_engine(spec).kind, EngineKind::kRepParallel);
  spec.reps = 1;
  EXPECT_EQ(resolve_engine(spec).kind, EngineKind::kSerial);
  spec.nodes = 1'000'000;  // giant single rep -> intra_rep
  EXPECT_EQ(resolve_engine(spec).kind, EngineKind::kIntraRep);
  spec.aggregate = AggregateKind::kCount;  // giant COUNT is eligible too
  spec.instances = 16;
  EXPECT_EQ(resolve_engine(spec).kind, EngineKind::kIntraRep);
  spec.driver = DriverKind::kPushSum;  // ...but only the cycle driver
  EXPECT_EQ(resolve_engine(spec).kind, EngineKind::kSerial);
}

// ------------------------------------------------ runner mechanics

TEST(ParallelRunner, MapReturnsResultsInIndexOrder) {
  ParallelRunner runner(4);
  const auto out = runner.map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, PoolIsReusableAcrossBatches) {
  ParallelRunner runner(3);
  std::atomic<std::uint64_t> total{0};
  for (int batch = 0; batch < 20; ++batch) {
    runner.run(17, [&](std::size_t i) { total += i; });
  }
  EXPECT_EQ(total.load(std::memory_order_relaxed), 20u * (16u * 17u / 2u));
}

TEST(ParallelRunner, RunsEveryIndexExactlyOnce) {
  ParallelRunner runner(4);
  std::vector<std::atomic<int>> hits(257);
  runner.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1);
  }
}

TEST(ParallelRunner, PropagatesJobExceptions) {
  for (unsigned threads : {1u, 4u}) {
    ParallelRunner runner(threads);
    EXPECT_THROW(
        runner.run(8,
                   [](std::size_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                   }),
        std::runtime_error);
    // The pool must survive a throwing batch.
    EXPECT_NO_THROW(runner.run(4, [](std::size_t) {}));
  }
}

TEST(ParallelRunner, ZeroCountIsANoOp) {
  ParallelRunner runner(2);
  bool touched = false;
  runner.run(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelRunner, SplitSeedsAreStableAndDistinct) {
  const auto a = split_seeds(123, 64);
  const auto b = split_seeds(123, 64);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
  const std::set<std::uint64_t> distinct(a.begin(), a.end());
  EXPECT_EQ(distinct.size(), a.size());
  // Prefix stability: asking for fewer seeds yields a prefix.
  const auto prefix = split_seeds(123, 8);
  for (std::size_t i = 0; i < prefix.size(); ++i) EXPECT_EQ(prefix[i], a[i]);
  EXPECT_NE(split_seeds(124, 1)[0], a[0]);
}

TEST(ParallelRunner, ThreadCountResolution) {
  EXPECT_GE(runner_threads(), 1u);
  ParallelRunner one(1);
  EXPECT_EQ(one.threads(), 1u);
  ParallelRunner six(6);
  EXPECT_EQ(six.threads(), 6u);
  ParallelRunner def;
  EXPECT_EQ(def.threads(), runner_threads());
}

// ------------------------------------------- seed-derivation goldens
//
// The stream-salt registry (src/common/stream_salt.hpp) centralized
// every scattered seed constant. These u64s were captured from the
// pre-registry call sites: if any of them moves, a refactor silently
// re-keyed an RNG stream and every published figure shifts with it.

TEST(SeedDerivationGolden, RepSeedExactValues) {
  EXPECT_EQ(rep_seed(42, 0, 0), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(rep_seed(42, 1, 0), 0x28efe333b266f103ULL);
  EXPECT_EQ(rep_seed(42, 0, 1), 0x2662e781ec8e4b66ULL);
  EXPECT_EQ(rep_seed(42, 3, 7), 0xe4003c9b1082141cULL);
  EXPECT_EQ(rep_seed(0xdeadbeefULL, 2, 5), 0xfdd4df798b848e8dULL);
}

TEST(SeedDerivationGolden, NodeStreamKeyExactValues) {
  EXPECT_EQ(salt::node_stream_key(777, 0, 0, salt::agg_round_salt(0)),
            0x2e643b88c4aff1fdULL);
  EXPECT_EQ(salt::node_stream_key(777, 5, 17, salt::agg_round_salt(2)),
            0x4821b0991d8f71afULL);
}

}  // namespace
}  // namespace gossip::experiment
