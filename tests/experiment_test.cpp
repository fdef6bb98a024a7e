// Tests for src/experiment: the cycle driver's mechanics (determinism,
// participation gating, guards) and the *physics* of the reproduction —
// convergence factors matching 1/(2√e), COUNT accuracy, the documented
// effects of crashes, link failures and message loss.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/require.hpp"
#include "experiment/cycle_sim.hpp"
#include "experiment/engine.hpp"
#include "experiment/intra_rep.hpp"
#include "experiment/parallel_runner.hpp"
#include "experiment/scale.hpp"
#include "experiment/spec.hpp"
#include "experiment/table.hpp"
#include "failure/comm_failure.hpp"
#include "failure/failure_plan.hpp"
#include "stats/running_stats.hpp"
#include "theory/predictions.hpp"

namespace gossip::experiment {
namespace {

SimConfig base_config(std::uint32_t n, std::uint32_t cycles,
                      TopologyConfig topo) {
  SimConfig cfg;
  cfg.nodes = n;
  cfg.cycles = cycles;
  cfg.topology = topo;
  return cfg;
}

// The physics tests drive workloads through the Engine facade; these
// shims translate the historical (SimConfig, plan, raw seed) call shape.
ScenarioSpec spec_of(const SimConfig& cfg, AggregateKind aggregate) {
  ScenarioSpec spec =
      aggregate == AggregateKind::kCount
          ? ScenarioSpec::count("test", cfg.nodes, cfg.cycles, cfg.instances)
          : ScenarioSpec::average_peak("test", cfg.nodes, cfg.cycles);
  spec.topology = cfg.topology;
  spec.comm = {cfg.comm.p_link_down(), cfg.comm.p_message_loss()};
  spec.engine = EngineKind::kSerial;
  return spec;
}

RunResult run_avg(const SimConfig& cfg, const failure::FailurePlan& plan,
                  std::uint64_t seed) {
  Engine engine;
  return engine.run_single(spec_of(cfg, AggregateKind::kAverage), seed,
                           &plan);
}

RunResult run_cnt(const SimConfig& cfg, const failure::FailurePlan& plan,
                  std::uint64_t seed) {
  Engine engine;
  return engine.run_single(spec_of(cfg, AggregateKind::kCount), seed, &plan);
}

// ------------------------------------------------------------ mechanics
//
// The lifecycle guards run on both cycle engines. Each adapter builds
// one engine from a SimConfig and runs it against a plan, so a test body
// is written once for both.

struct SerialEngine {
  explicit SerialEngine(const SimConfig& cfg) : sim(cfg, Rng(1)) {}
  void run(const failure::FailurePlan& plan) { sim.run(plan); }
  CycleSimulation sim;
};

struct IntraRepEngine {
  explicit IntraRepEngine(const SimConfig& cfg) : sim(cfg, 1, 2) {}
  void run(const failure::FailurePlan& plan) { sim.run(plan, pool); }
  ParallelRunner pool{1};
  IntraRepSimulation sim;
};

template <typename E>
class Lifecycle : public testing::Test {};
using CycleEngines = testing::Types<SerialEngine, IntraRepEngine>;
TYPED_TEST_SUITE(Lifecycle, CycleEngines);

TYPED_TEST(Lifecycle, RequiresInitialization) {
  TypeParam e(base_config(100, 5, TopologyConfig::complete()));
  failure::NoFailures none;
  EXPECT_THROW(e.run(none), require_error);
}

TYPED_TEST(Lifecycle, RunOnlyOnce) {
  TypeParam e(base_config(100, 5, TopologyConfig::complete()));
  e.sim.init_peak(100.0);
  failure::NoFailures none;
  e.run(none);
  EXPECT_THROW(e.run(none), require_error);
}

TYPED_TEST(Lifecycle, ScalarInitNeedsSingleInstance) {
  SimConfig cfg = base_config(100, 5, TopologyConfig::complete());
  cfg.instances = 3;
  TypeParam e(cfg);
  EXPECT_THROW(e.sim.init_peak(1.0), require_error);
}

TYPED_TEST(Lifecycle, EstimateGuards) {
  TypeParam e(base_config(10, 1, TopologyConfig::complete()));
  e.sim.init_peak(10.0);
  EXPECT_THROW((void)e.sim.estimate(NodeId(10), 0), require_error);
  EXPECT_THROW((void)e.sim.estimate(NodeId(0), 1), require_error);
  EXPECT_DOUBLE_EQ(e.sim.estimate(NodeId(0), 0), 10.0);
}

// The constructor zeroes every lane once; a COUNT init after an earlier
// init must still leave every lane but the leaders' exactly 0.
TYPED_TEST(Lifecycle, CountInitAfterAnotherInitZeroesNonLeaderLanes) {
  TypeParam scalar_first(base_config(100, 5, TopologyConfig::complete()));
  scalar_first.sim.init_scalar([](NodeId id) { return 1.0 + id.value(); });
  scalar_first.sim.init_count_leaders();
  const NodeId leader = scalar_first.sim.leaders().front();
  for (std::uint32_t u = 0; u < 100; ++u) {
    EXPECT_EQ(scalar_first.sim.estimate(NodeId(u), 0),
              u == leader.value() ? 1.0 : 0.0)
        << "node " << u;
  }

  SimConfig cfg = base_config(100, 5, TopologyConfig::complete());
  cfg.instances = 4;
  TypeParam count_twice(cfg);
  count_twice.sim.init_count_leaders();
  count_twice.sim.init_count_leaders();
  const auto& leaders = count_twice.sim.leaders();
  for (std::uint32_t u = 0; u < 100; ++u) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(count_twice.sim.estimate(NodeId(u), i),
                leaders[i] == NodeId(u) ? 1.0 : 0.0)
          << "node " << u << " lane " << i;
    }
  }
}

TYPED_TEST(Lifecycle, StaticTopologyRejectsJoins) {
  TypeParam e(base_config(100, 5, TopologyConfig::random_k_out(10)));
  e.sim.init_peak(100.0);
  failure::Churn churn(5);
  EXPECT_THROW(e.run(churn), require_error);
}

TEST(CycleSim, DeterministicBySeed) {
  for (auto topo : {TopologyConfig::newscast(10),
                    TopologyConfig::random_k_out(8)}) {
    const auto cfg = base_config(300, 10, topo);
    failure::NoFailures none;
    CycleSimulation a(cfg, Rng(42)), b(cfg, Rng(42));
    a.init_peak(300.0);
    b.init_peak(300.0);
    a.run(none);
    b.run(none);
    for (std::uint32_t u = 0; u < 300; ++u) {
      ASSERT_DOUBLE_EQ(a.estimate(NodeId(u), 0), b.estimate(NodeId(u), 0));
    }
  }
}

TEST(CycleSim, DifferentSeedsDiffer) {
  const auto cfg = base_config(300, 3, TopologyConfig::newscast(10));
  failure::NoFailures none;
  CycleSimulation a(cfg, Rng(1)), b(cfg, Rng(2));
  a.init_peak(300.0);
  b.init_peak(300.0);
  a.run(none);
  b.run(none);
  int identical = 0;
  for (std::uint32_t u = 0; u < 300; ++u) {
    identical += (a.estimate(NodeId(u), 0) == b.estimate(NodeId(u), 0));
  }
  EXPECT_LT(identical, 300);
}

TEST(CycleSim, CycleStatsHasInitialSnapshotPlusOnePerCycle) {
  const auto cfg = base_config(200, 7, TopologyConfig::complete());
  CycleSimulation sim(cfg, Rng(3));
  sim.init_peak(200.0);
  failure::NoFailures none;
  sim.run(none);
  ASSERT_EQ(sim.cycle_stats().size(), 8u);
  EXPECT_EQ(sim.cycle_stats().front().count(), 200u);
}

TEST(CycleSim, JoinersAreNotParticipants) {
  const auto cfg = base_config(200, 6, TopologyConfig::newscast(15));
  CycleSimulation sim(cfg, Rng(7));
  sim.init_peak(200.0);
  failure::Churn churn(10);
  sim.run(churn);
  // 6 cycles × 10 joins: population grew, participants only shrink.
  EXPECT_EQ(sim.population().total(), 260u);
  EXPECT_EQ(sim.population().live_count(), 200u);
  const auto parts = sim.participants();
  // Kills are uniform over the live set, so some of the 60 hit joiners:
  // participants lie in (200-60, 200).
  EXPECT_GT(parts.size(), 140u);
  EXPECT_LT(parts.size(), 200u);
  for (NodeId u : parts) EXPECT_LT(u.value(), 200u);
}

// ------------------------------------------------------------- physics

TEST(Physics, MassConservedWithoutFailures) {
  // Without crashes or message loss the mean estimate over all nodes is
  // invariant: the paper's §3 sum-conservation argument.
  const auto cfg = base_config(1000, 20, TopologyConfig::newscast(20));
  RunResult run =
      run_avg(cfg, failure::NoFailures{}, /*seed=*/11);
  for (const auto& rs : run.per_cycle) {
    EXPECT_NEAR(rs.mean(), 1.0, 1e-9);
  }
}

TEST(Physics, VarianceMonotoneWithoutMessageLoss) {
  const auto cfg = base_config(1000, 25, TopologyConfig::random_k_out(20));
  RunResult run = run_avg(cfg, failure::NoFailures{}, 13);
  const auto& vars = run.tracker.variances();
  for (std::size_t i = 1; i < vars.size(); ++i) {
    EXPECT_LE(vars[i], vars[i - 1] * (1.0 + 1e-12)) << "cycle " << i;
  }
}

TEST(Physics, CompleteGraphMatchesPushPullFactor) {
  // The headline theory check: ρ ≈ 1/(2√e) ≈ 0.303 on a sufficiently
  // random overlay. Averaged over reps to tame run-to-run noise.
  const auto cfg = base_config(4000, 20, TopologyConfig::complete());
  stats::RunningStats factors;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    RunResult run =
        run_avg(cfg, failure::NoFailures{}, rep_seed(17, 0, rep));
    factors.add(run.tracker.mean_factor(15));
  }
  EXPECT_NEAR(factors.mean(), theory::push_pull_factor(), 0.03);
}

TEST(Physics, RandomAndNewscastCloseToCompete) {
  const std::uint32_t n = 4000;
  const auto factor_of = [n](TopologyConfig topo, std::uint64_t seed) {
    const auto cfg = base_config(n, 20, topo);
    RunResult run = run_avg(cfg, failure::NoFailures{}, seed);
    return run.tracker.mean_factor(15);
  };
  EXPECT_NEAR(factor_of(TopologyConfig::random_k_out(20), 19),
              theory::push_pull_factor(), 0.05);
  EXPECT_NEAR(factor_of(TopologyConfig::newscast(30), 23),
              theory::push_pull_factor(), 0.06);
}

TEST(Physics, TopologyOrderingMatchesFig3) {
  // Fig. 3: ring lattice (W-S β=0) converges far slower than random;
  // rewiring improves monotonically (fig. 4a's trend).
  const std::uint32_t n = 2000;
  const auto factor_of = [n](TopologyConfig topo) {
    const auto cfg = base_config(n, 20, topo);
    RunResult run = run_avg(cfg, failure::NoFailures{}, 29);
    return run.tracker.mean_factor(15);
  };
  const double ring = factor_of(TopologyConfig::ring_lattice(20));
  const double ws25 = factor_of(TopologyConfig::watts_strogatz(20, 0.25));
  const double ws75 = factor_of(TopologyConfig::watts_strogatz(20, 0.75));
  const double rnd = factor_of(TopologyConfig::random_k_out(20));
  EXPECT_GT(ring, 0.6);      // paper: ≈ 0.8
  EXPECT_LT(ws25, ring);     // some rewiring helps
  EXPECT_LT(ws75, ws25);     // more helps more
  EXPECT_LT(std::abs(rnd - theory::push_pull_factor()), 0.05);
  EXPECT_GT(ws75, rnd - 0.05);  // but never beats fully random
}

TEST(Physics, ScaleFreeConvergesNearRandom) {
  const auto cfg = base_config(3000, 20, TopologyConfig::barabasi_albert(20));
  RunResult run = run_avg(cfg, failure::NoFailures{}, 31);
  // Paper fig. 3a: scale-free sits slightly above random but well below
  // the lattice family.
  EXPECT_LT(run.tracker.mean_factor(15), 0.45);
}

TEST(Physics, FactorIndependentOfNetworkSize) {
  // Fig. 3a's flat curves: the same factor at 500 and 8000 nodes.
  const auto factor_at = [](std::uint32_t n) {
    const auto cfg = base_config(n, 20, TopologyConfig::random_k_out(20));
    stats::RunningStats f;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      RunResult run =
          run_avg(cfg, failure::NoFailures{}, rep_seed(37, n, rep));
      f.add(run.tracker.mean_factor(12));
    }
    return f.mean();
  };
  EXPECT_NEAR(factor_at(500), factor_at(8000), 0.05);
}

TEST(Physics, CountRecoversNetworkSize) {
  SimConfig cfg = base_config(2000, 30, TopologyConfig::newscast(30));
  RunResult run = run_cnt(cfg, failure::NoFailures{}, 41);
  EXPECT_EQ(run.participants, 2000u);
  // After 30 cycles every node's estimate is essentially exact.
  EXPECT_NEAR(run.sizes.mean, 2000.0, 2.0);
  EXPECT_NEAR(run.sizes.min, 2000.0, 2.0);
  EXPECT_NEAR(run.sizes.max, 2000.0, 2.0);
}

TEST(Physics, CountMultiInstanceAlsoExact) {
  SimConfig cfg = base_config(1000, 30, TopologyConfig::newscast(30));
  cfg.instances = 10;
  RunResult run = run_cnt(cfg, failure::NoFailures{}, 43);
  EXPECT_NEAR(run.sizes.mean, 1000.0, 1.0);
}

TEST(Physics, LinkFailureOnlySlowsConvergence) {
  // §6.2/§7.2: with P_d the factor degrades toward e^(P_d−1) but the
  // mean (and thus the final estimate) is untouched.
  SimConfig cfg = base_config(3000, 30, TopologyConfig::newscast(30));
  cfg.comm = failure::CommFailureModel::link_failure(0.5);
  RunResult run = run_avg(cfg, failure::NoFailures{}, 47);
  for (const auto& rs : run.per_cycle) EXPECT_NEAR(rs.mean(), 1.0, 1e-9);
  const double factor = run.tracker.mean_factor(20);
  const double bound = theory::link_failure_bound(0.5);
  EXPECT_LT(factor, bound + 0.04);
  EXPECT_GT(factor, theory::push_pull_factor() - 0.02);
}

TEST(Physics, LinkFailureBoundHoldsAcrossRates) {
  for (double pd : {0.2, 0.4, 0.7}) {
    SimConfig cfg = base_config(2000, 30, TopologyConfig::newscast(30));
    cfg.comm = failure::CommFailureModel::link_failure(pd);
    stats::RunningStats f;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      RunResult run = run_avg(cfg, failure::NoFailures{},
                                        rep_seed(53, std::uint64_t(pd * 10), rep));
      f.add(run.tracker.mean_factor(20));
    }
    EXPECT_LT(f.mean(), theory::link_failure_bound(pd) + 0.05) << pd;
  }
}

TEST(Physics, ResponseLossBreaksMassConservation) {
  // §7.2: losing responses changes the global average (the passive side
  // already updated). With 30% loss over 20 cycles the drift is visible.
  SimConfig cfg = base_config(2000, 20, TopologyConfig::newscast(30));
  cfg.comm = failure::CommFailureModel::message_loss(0.3);
  RunResult run = run_avg(cfg, failure::NoFailures{}, 59);
  const double final_mean = run.per_cycle.back().mean();
  EXPECT_GT(std::abs(final_mean - 1.0), 1e-4);
}

TEST(Physics, CountDegradesGracefullyWithMessageLoss) {
  // Fig. 7b: small loss ⇒ reasonable estimates.
  SimConfig cfg = base_config(2000, 30, TopologyConfig::newscast(30));
  cfg.comm = failure::CommFailureModel::message_loss(0.05);
  RunResult run = run_cnt(cfg, failure::NoFailures{}, 61);
  EXPECT_GT(run.sizes.min, 1000.0);
  EXPECT_LT(run.sizes.max, 4000.0);
}

TEST(Physics, SuddenDeathLateIsHarmless) {
  // Fig. 6a: by cycle ~10 the variance is so small that killing half the
  // network barely moves the estimate.
  SimConfig cfg = base_config(2000, 30, TopologyConfig::newscast(30));
  RunResult run =
      run_cnt(cfg, failure::SuddenDeath(/*death_cycle=*/15, 0.5), 67);
  EXPECT_EQ(run.participants, 1000u);
  EXPECT_NEAR(run.sizes.mean, 2000.0, 60.0);
}

TEST(Physics, SuddenDeathEarlyIsWild) {
  // Killing half the network at cycle 1 scatters the estimate widely
  // across repetitions (fig. 6a's left edge).
  SimConfig cfg = base_config(2000, 30, TopologyConfig::newscast(30));
  stats::RunningStats means;
  int infinite = 0;
  for (std::uint64_t rep = 0; rep < 12; ++rep) {
    RunResult run = run_cnt(cfg, failure::SuddenDeath(1, 0.5),
                             rep_seed(71, 0, rep));
    // If every node holding non-zero mass died, the estimate is infinite
    // — the paper: "the estimate can even become infinite".
    if (std::isfinite(run.sizes.mean)) {
      means.add(run.sizes.mean);
    } else {
      ++infinite;
    }
  }
  // Wild either way: infinite runs, or a wide spread across reps
  // (late death stays within a percent or two).
  if (infinite == 0) {
    EXPECT_GT(means.stddev() / means.mean(), 0.05);
  } else {
    SUCCEED() << infinite << " runs diverged to infinity";
  }
}

TEST(Physics, ChurnKeepsEstimateInRange) {
  // Fig. 6b: replacing 2.5% of the network per cycle still yields
  // estimates in a reasonable band around the epoch-start size.
  SimConfig cfg = base_config(2000, 30, TopologyConfig::newscast(30));
  RunResult run = run_cnt(cfg, failure::Churn(50), 73);
  // Kills are uniform over the live set (joiners included), so surviving
  // participants ≈ N(1 - r/N)^cycles = 2000 · 0.975³⁰ ≈ 934.
  EXPECT_GT(run.participants, 800u);
  EXPECT_LT(run.participants, 1100u);
  EXPECT_GT(run.sizes.mean, 1000.0);
  EXPECT_LT(run.sizes.mean, 4000.0);
}

TEST(Physics, MultiInstanceTrimmingBeatsSingleUnderLoss)
{
  // Fig. 8b's point: with 20% message loss, t = 20 instances with the
  // trimmed combiner give a far tighter node-to-node spread than t = 1.
  const auto spread_of = [](std::uint32_t t, std::uint64_t seed) {
    SimConfig cfg = base_config(1500, 30, TopologyConfig::newscast(30));
    cfg.instances = t;
    cfg.comm = failure::CommFailureModel::message_loss(0.2);
    RunResult run = run_cnt(cfg, failure::NoFailures{}, seed);
    return (run.sizes.max - run.sizes.min) / run.sizes.mean;
  };
  stats::RunningStats single, multi;
  for (std::uint64_t rep = 0; rep < 4; ++rep) {
    single.add(spread_of(1, rep_seed(79, 1, rep)));
    multi.add(spread_of(20, rep_seed(79, 20, rep)));
  }
  EXPECT_LT(multi.mean(), 0.5 * single.mean());
}

TEST(Physics, Theorem1PredictionMatchesMonteCarlo) {
  // Fig. 5 in miniature: Var(µ_20)/E(σ²_0) against eq. 2 on the complete
  // topology. Monte-Carlo variance of a variance is noisy; assert the
  // right order of magnitude and sign structure rather than 5% accuracy.
  const std::uint32_t n = 3000;
  const double pf = 0.05;
  SimConfig cfg = base_config(n, 20, TopologyConfig::complete());
  stats::RunningStats mu20;
  double sigma0_sq = 0.0;
  for (std::uint64_t rep = 0; rep < 60; ++rep) {
    RunResult run = run_avg(cfg, failure::ProportionalCrash(pf),
                                      rep_seed(83, 0, rep));
    mu20.add(run.per_cycle.back().mean());
    sigma0_sq = run.per_cycle.front().variance();
  }
  const double measured = mu20.variance() / sigma0_sq;
  const double predicted = theory::mu_variance(
      pf, n, sigma0_sq, theory::push_pull_factor(), 20) / sigma0_sq;
  EXPECT_GT(measured, predicted / 3.0);
  EXPECT_LT(measured, predicted * 3.0);
}

TEST(Physics, CrashFreeRunsHaveNoMuVariance) {
  // The Pf = 0 anchor of fig. 5: without crashes µ is exactly 1 in every
  // repetition (mass conservation), so Var(µ) = 0.
  SimConfig cfg = base_config(1000, 20, TopologyConfig::complete());
  stats::RunningStats mu;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    RunResult run = run_avg(cfg, failure::NoFailures{},
                                      rep_seed(89, 0, rep));
    mu.add(run.per_cycle.back().mean());
  }
  EXPECT_LT(mu.variance(), 1e-18);
}

// ----------------------------------------------------------- harness aux

TEST(Scale, ScaledDefaults) {
  const Scale s = bench_scale(1000, 10, 100000, 50);
  EXPECT_EQ(s.nodes, 1000u);
  EXPECT_EQ(s.reps, 10u);
  EXPECT_EQ(s.seed, 0x5eedu);
  EXPECT_FALSE(s.full);
}

TEST(Scale, FullSelectsPaperScale) {
  const Scale s = bench_scale(1000, 10, 100000, 50, /*full=*/true);
  EXPECT_EQ(s.nodes, 100000u);
  EXPECT_EQ(s.reps, 50u);
  EXPECT_EQ(s.seed, 0x5eedu);
  EXPECT_TRUE(s.full);
}

TEST(TableOutput, AlignedPrintAndCsv) {
  Table t({"x", "value"});
  t.add_row({"1", fmt(0.5, 2)});
  t.add_row({"10", fmt_sci(12345.0, 2)});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream pretty;
  t.print(pretty);
  EXPECT_NE(pretty.str().find("value"), std::string::npos);
  EXPECT_NE(pretty.str().find("0.50"), std::string::npos);
  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_EQ(csv.str(), "x,value\n1,0.50\n10,1.23e+04\n");
}

TEST(TableOutput, RowWidthGuard) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), require_error);
}

TEST(RepSeed, StableAndSpread) {
  EXPECT_EQ(rep_seed(1, 2, 3), rep_seed(1, 2, 3));
  EXPECT_NE(rep_seed(1, 2, 3), rep_seed(1, 2, 4));
  EXPECT_NE(rep_seed(1, 2, 3), rep_seed(1, 3, 3));
  EXPECT_NE(rep_seed(2, 2, 3), rep_seed(1, 2, 3));
}

}  // namespace
}  // namespace gossip::experiment
