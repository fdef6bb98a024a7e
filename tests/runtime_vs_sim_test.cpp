// The runtime_vs_sim cross-check: the same ScenarioSpec executed on the
// deployment runtime and on the simulators must agree on the protocol's
// macroscopic behavior — exact global sum conservation under zero loss,
// and a per-cycle variance-reduction factor within tolerance of the
// event-driven driver (the closest semantic match: both host the same
// proto::Node, which enforces exchange atomicity with busy-NACKs) and of
// the serial cycle driver at small N.
// The runtime is wall-clock concurrent, so the comparison is statistical
// (factors), never bit-level.
#include <gtest/gtest.h>

#include <cmath>

#include "experiment/engine.hpp"
#include "experiment/spec.hpp"

namespace gossip::experiment {
namespace {

constexpr std::uint32_t kNodes = 128;
constexpr std::uint32_t kCycles = 10;
constexpr std::uint64_t kSeed = 2004;

ScenarioSpec base_spec(DriverKind driver) {
  return ScenarioSpec::average_peak("runtime_vs_sim", kNodes, kCycles)
      .with_topology(TopologyConfig::complete())
      .with_driver(driver)
      .with_seed(kSeed);
}

/// Geometric-mean per-cycle variance reduction over a run's recorded
/// trajectory: (var_T / var_0)^(1/T).
double reduction_factor(double var0, double varT, std::uint32_t cycles) {
  return std::pow(varT / var0, 1.0 / static_cast<double>(cycles));
}

TEST(RuntimeVsSim, ZeroLossConservesGlobalSumExactly) {
  Engine engine;
  const RunResult rt = engine.run_single(base_spec(DriverKind::kRuntime),
                                         kSeed);
  ASSERT_TRUE(rt.runtime_enabled);
  // The peak workload's values stay dyadic at this scale, so "exact"
  // means exact: every completed exchange moves mass without rounding
  // and the quiescence rule never expires a live exchange.
  EXPECT_DOUBLE_EQ(rt.runtime_sum_initial, static_cast<double>(kNodes));
  EXPECT_DOUBLE_EQ(rt.runtime_sum_final, rt.runtime_sum_initial);
  EXPECT_EQ(rt.runtime_counters.timeouts, 0u);
  EXPECT_EQ(rt.runtime_counters.late_replies, 0u);
  EXPECT_EQ(rt.participants, kNodes);
}

TEST(RuntimeVsSim, VarianceReductionMatchesEventDriver) {
  Engine engine;
  const RunResult rt = engine.run_single(base_spec(DriverKind::kRuntime),
                                         kSeed);
  ASSERT_GE(rt.per_cycle.size(), kCycles + 1);
  const double f_rt = reduction_factor(rt.per_cycle.front().variance(),
                                       rt.per_cycle.back().variance(),
                                       kCycles);

  // The event driver always runs its own NEWSCAST membership, so its
  // spec keeps the default topology.
  ScenarioSpec event = base_spec(DriverKind::kEvent);
  event.topology = TopologyConfig{};
  validate(event);
  const RunResult ev = engine.run_single(event, kSeed);
  ASSERT_GE(ev.per_cycle.size(), kCycles + 1);
  const double f_event = reduction_factor(ev.per_cycle.front().variance(),
                                          ev.per_cycle.back().variance(),
                                          kCycles);

  // Push–pull on a complete overlay reduces variance by a factor well
  // below 1 every cycle (paper fig. 2: ~0.3 ideal; busy-NACK refusals
  // soften it). Both stacks must land in that regime, close together.
  EXPECT_GT(f_rt, 0.05);
  EXPECT_LT(f_rt, 0.8);
  EXPECT_GT(f_event, 0.05);
  EXPECT_LT(f_event, 0.8);
  EXPECT_NEAR(f_rt, f_event, 0.3);
}

TEST(RuntimeVsSim, VarianceReductionMatchesCycleDriver) {
  Engine engine;
  const RunResult rt = engine.run_single(base_spec(DriverKind::kRuntime),
                                         kSeed);
  const RunResult sim = engine.run_single(base_spec(DriverKind::kCycle),
                                          kSeed);
  ASSERT_GE(rt.per_cycle.size(), kCycles + 1);
  ASSERT_GE(sim.per_cycle.size(), kCycles + 1);

  const double f_rt = reduction_factor(rt.per_cycle.front().variance(),
                                       rt.per_cycle.back().variance(),
                                       kCycles);
  const double f_sim = reduction_factor(sim.per_cycle.front().variance(),
                                        sim.per_cycle.back().variance(),
                                        kCycles);
  // Both runs start from the identical initial distribution…
  EXPECT_DOUBLE_EQ(rt.per_cycle.front().variance(),
                   sim.per_cycle.front().variance());
  // …and converge at comparable speed. The serial driver serves every
  // push unconditionally (no busy refusals), so it is the faster end of
  // the band; the runtime must stay within the cross-check tolerance.
  EXPECT_NEAR(f_rt, f_sim, 0.3);
  EXPECT_GE(f_rt, f_sim - 0.05);  // runtime cannot beat the ideal driver
}

// Failure plans land identically on both stacks: the runtime spends the
// simulators' keep-one-alive kill budget, so every kind the runtime
// accepts without joiners leaves the same live count after every cycle —
// including a correlated wave the budget cuts short (4 × 25 ids > 64).
TEST(RuntimeVsSim, LiveCountsAgreeUnderFailurePlans) {
  const FailureSpec plans[] = {
      FailureSpec::proportional_crash(0.2),
      FailureSpec::sudden_death(3, 0.5),
      FailureSpec::constant_crash(10),
      FailureSpec::correlated_waves(1, 4, 0.4),
  };
  Engine engine;
  for (const FailureSpec& failure : plans) {
    SCOPED_TRACE(to_string(failure.kind));
    ScenarioSpec rt_spec = ScenarioSpec::average_peak("live_counts", 64,
                                                      kCycles)
                               .with_topology(TopologyConfig::complete())
                               .with_failure(failure)
                               .with_driver(DriverKind::kRuntime)
                               .with_seed(kSeed);
    rt_spec.runtime.workers = 1;
    ScenarioSpec sim_spec = rt_spec;
    sim_spec.driver = DriverKind::kCycle;
    sim_spec.runtime = RuntimeSpec{};  // runtime.* needs driver 'runtime'
    const RunResult rt = engine.run_single(rt_spec, kSeed);
    const RunResult sim = engine.run_single(sim_spec, kSeed);
    ASSERT_EQ(rt.per_cycle.size(), sim.per_cycle.size());
    for (std::size_t c = 0; c < sim.per_cycle.size(); ++c) {
      EXPECT_EQ(rt.per_cycle[c].count(), sim.per_cycle[c].count())
          << "cycle " << c;
    }
  }
}

// Drift crosses over too: the same engine-invariant drift stream feeds
// both stacks, so the runtime tracks a moving mean just like the sims.
TEST(RuntimeVsSim, DriftStreamTracksLikeCycleDriver) {
  ScenarioSpec rt_spec =
      base_spec(DriverKind::kRuntime)
          .with_init(InitKind::kUniform)
          .with_drift(DriftSpec::linear(0.01));
  ScenarioSpec sim_spec =
      base_spec(DriverKind::kCycle)
          .with_init(InitKind::kUniform)
          .with_drift(DriftSpec::linear(0.01));

  Engine engine;
  const RunResult rt = engine.run_single(rt_spec, kSeed);
  const RunResult sim = engine.run_single(sim_spec, kSeed);
  ASSERT_FALSE(rt.tracking_error.empty());
  ASSERT_FALSE(sim.tracking_error.empty());
  // Converged trackers hold the error well below the total drift the
  // mean accumulated over the run (0.01 * 10 cycles).
  EXPECT_LT(rt.tracking_error.back(), 0.05);
  EXPECT_LT(sim.tracking_error.back(), 0.05);
}

}  // namespace
}  // namespace gossip::experiment
