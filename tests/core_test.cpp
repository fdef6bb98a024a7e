// Tests for src/core: UPDATE algebra, COUNT map merge laws (including the
// dense-vector equivalence the fast path relies on), derived aggregates,
// epoch machine, join gate, leader election and the robust combiner.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/count.hpp"
#include "core/derived.hpp"
#include "core/epoch.hpp"
#include "core/multi_instance.hpp"
#include "core/update.hpp"

namespace gossip::core {
namespace {

// ---------------------------------------------------------------- UPDATE

TEST(Update, AverageConservesSum) {
  Rng rng(1);
  for (int t = 0; t < 1000; ++t) {
    const double a = rng.uniform(-100.0, 100.0);
    const double b = rng.uniform(-100.0, 100.0);
    const double u = AverageUpdate::apply(a, b);
    EXPECT_NEAR(u + u, a + b, 1e-9);
  }
}

TEST(Update, AverageContractsSpread) {
  const double u = AverageUpdate::apply(0.0, 10.0);
  EXPECT_DOUBLE_EQ(u, 5.0);
  // Both peers end inside [min, max] of the inputs.
  EXPECT_GE(u, 0.0);
  EXPECT_LE(u, 10.0);
}

TEST(Update, MinMaxAreExtremesAndIdempotent) {
  EXPECT_DOUBLE_EQ(MinUpdate::apply(3.0, -2.0), -2.0);
  EXPECT_DOUBLE_EQ(MaxUpdate::apply(3.0, -2.0), 3.0);
  EXPECT_DOUBLE_EQ(MinUpdate::apply(5.0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(MaxUpdate::apply(5.0, 5.0), 5.0);
}

TEST(Update, GeometricConservesProduct) {
  Rng rng(2);
  for (int t = 0; t < 1000; ++t) {
    const double a = rng.uniform(0.1, 50.0);
    const double b = rng.uniform(0.1, 50.0);
    const double u = GeometricMeanUpdate::apply(a, b);
    EXPECT_NEAR(u * u, a * b, a * b * 1e-9);
  }
}

TEST(Update, GeometricRejectsNegatives) {
  EXPECT_THROW(GeometricMeanUpdate::apply(-1.0, 2.0), require_error);
}

TEST(Update, AllAreSymmetric) {
  Rng rng(3);
  for (int t = 0; t < 200; ++t) {
    const double a = rng.uniform(0.0, 10.0), b = rng.uniform(0.0, 10.0);
    EXPECT_DOUBLE_EQ(AverageUpdate::apply(a, b), AverageUpdate::apply(b, a));
    EXPECT_DOUBLE_EQ(MinUpdate::apply(a, b), MinUpdate::apply(b, a));
    EXPECT_DOUBLE_EQ(MaxUpdate::apply(a, b), MaxUpdate::apply(b, a));
    EXPECT_DOUBLE_EQ(GeometricMeanUpdate::apply(a, b),
                     GeometricMeanUpdate::apply(b, a));
  }
}

// A random sequence of pairwise average exchanges conserves the global
// sum and keeps every estimate within the initial bounds — the two
// invariants §3 argues from.
TEST(Update, RandomScheduleInvariants) {
  Rng rng(4);
  std::vector<double> values(64);
  for (auto& v : values) v = rng.uniform(-5.0, 20.0);
  double sum0 = 0.0, min0 = values[0], max0 = values[0];
  for (double v : values) {
    sum0 += v;
    min0 = std::min(min0, v);
    max0 = std::max(max0, v);
  }
  for (int step = 0; step < 5000; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(values.size()));
    auto j = static_cast<std::size_t>(rng.below(values.size()));
    if (i == j) continue;
    const double u = AverageUpdate::apply(values[i], values[j]);
    values[i] = values[j] = u;
  }
  double sum1 = 0.0;
  for (double v : values) {
    sum1 += v;
    EXPECT_GE(v, min0 - 1e-9);
    EXPECT_LE(v, max0 + 1e-9);
  }
  EXPECT_NEAR(sum1, sum0, 1e-7);
}

// ----------------------------------------------------------------- COUNT

TEST(CountMap, LeaderAndEmptyInitialState) {
  const CountMap empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.estimate_for(NodeId(3)), 0.0);

  const CountMap lead = CountMap::leader(NodeId(3));
  EXPECT_EQ(lead.size(), 1u);
  EXPECT_DOUBLE_EQ(lead.estimate_for(NodeId(3)), 1.0);
  EXPECT_TRUE(lead.contains(NodeId(3)));
  EXPECT_FALSE(lead.contains(NodeId(4)));
  EXPECT_THROW(CountMap::leader(NodeId::invalid()), require_error);
}

TEST(CountMap, MergeSingletonKeysHalve) {
  const CountMap a = CountMap::leader(NodeId(1));
  const CountMap b;
  const CountMap m = CountMap::merge(a, b);
  EXPECT_DOUBLE_EQ(m.estimate_for(NodeId(1)), 0.5);
}

TEST(CountMap, MergeSharedKeysAverage) {
  CountMap a = CountMap::leader(NodeId(1));
  CountMap b = CountMap::leader(NodeId(1));
  // Desynchronize the estimates through an extra merge with empty.
  a = CountMap::merge(a, CountMap{});  // 0.5
  const CountMap m = CountMap::merge(a, b);
  EXPECT_DOUBLE_EQ(m.estimate_for(NodeId(1)), 0.75);
}

TEST(CountMap, MergeUnionsDistinctLeaders) {
  const CountMap a = CountMap::leader(NodeId(1));
  const CountMap b = CountMap::leader(NodeId(7));
  const CountMap m = CountMap::merge(a, b);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.estimate_for(NodeId(1)), 0.5);
  EXPECT_DOUBLE_EQ(m.estimate_for(NodeId(7)), 0.5);
}

TEST(CountMap, MergeConservesPerLeaderMass) {
  // For every leader, e_a + e_b == 2 * e_merged (both sides install the
  // merged map) — the conservation that makes 1/avg a size estimate.
  Rng rng(5);
  CountMap a = CountMap::leader(NodeId(2));
  CountMap b = CountMap::leader(NodeId(9));
  for (int step = 0; step < 50; ++step) {
    const CountMap m = CountMap::merge(a, b);
    for (NodeId leader : {NodeId(2), NodeId(9)}) {
      EXPECT_NEAR(a.estimate_for(leader) + b.estimate_for(leader),
                  2.0 * m.estimate_for(leader), 1e-12);
    }
    // Randomly evolve one side to keep the states asymmetric.
    if (rng.chance(0.5)) {
      a = m;
    } else {
      b = m;
    }
  }
}

TEST(CountMap, SizeEstimate) {
  CountMap a = CountMap::leader(NodeId(0));
  a = CountMap::merge(a, CountMap{});  // 0.5 -> N̂ = 2
  EXPECT_DOUBLE_EQ(a.size_estimate(NodeId(0)), 2.0);
  EXPECT_THROW((void)a.size_estimate(NodeId(5)), require_error);
}

TEST(CountMap, AllSizeEstimatesOrderedByLeader) {
  CountMap a = CountMap::merge(CountMap::leader(NodeId(4)),
                               CountMap::leader(NodeId(1)));
  const auto sizes = a.all_size_estimates();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_DOUBLE_EQ(sizes[0], 2.0);  // leader 1
  EXPECT_DOUBLE_EQ(sizes[1], 2.0);  // leader 4
}

// Property: a full gossip run of the sparse CountMap is elementwise
// identical to the dense vector representation (absent key == 0).
TEST(CountMap, DenseEquivalenceUnderRandomSchedules) {
  constexpr std::size_t kNodes = 32;
  constexpr std::size_t kLeaders = 4;
  Rng rng(6);
  std::vector<CountMap> sparse(kNodes);
  std::vector<std::vector<double>> dense(kNodes,
                                         std::vector<double>(kLeaders, 0.0));
  for (std::size_t l = 0; l < kLeaders; ++l) {
    const std::size_t owner = l * 7 % kNodes;
    sparse[owner] = CountMap::merge(sparse[owner],
                                    CountMap::leader(NodeId(100 + l)));
    // merge with empty halves the mass — mirror that in dense.
    for (std::size_t l2 = 0; l2 < kLeaders; ++l2) dense[owner][l2] /= 2.0;
    dense[owner][l] += 0.5;
  }
  for (int step = 0; step < 4000; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(kNodes));
    const auto j = static_cast<std::size_t>(rng.below(kNodes));
    if (i == j) continue;
    const CountMap m = CountMap::merge(sparse[i], sparse[j]);
    sparse[i] = m;
    sparse[j] = m;
    for (std::size_t l = 0; l < kLeaders; ++l) {
      const double avg = (dense[i][l] + dense[j][l]) / 2.0;
      dense[i][l] = dense[j][l] = avg;
    }
  }
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (std::size_t l = 0; l < kLeaders; ++l) {
      EXPECT_NEAR(sparse[n].estimate_for(NodeId(100 + l)), dense[n][l],
                  1e-12)
          << "node " << n << " leader " << l;
    }
  }
}

TEST(SizeFromAverage, BasicAndGuards) {
  EXPECT_DOUBLE_EQ(size_from_average(0.01), 100.0);
  EXPECT_DOUBLE_EQ(size_from_average(2.0, 200.0), 100.0);
  EXPECT_THROW(size_from_average(0.0), require_error);
  EXPECT_THROW(size_from_average(1.0, 0.0), require_error);
}

TEST(LeaderElection, ProbabilityTracksEstimate) {
  LeaderElection le(10.0, 1000.0);
  EXPECT_DOUBLE_EQ(le.lead_probability(), 0.01);
  le.update_size_estimate(100.0);
  EXPECT_DOUBLE_EQ(le.lead_probability(), 0.1);
  le.update_size_estimate(5.0);
  EXPECT_DOUBLE_EQ(le.lead_probability(), 1.0);  // clamped
}

TEST(LeaderElection, ExpectedLeaderCountIsC) {
  // With N nodes each leading w.p. C/N, the expected number of leaders
  // is C (§5: approximately Poisson(C)).
  LeaderElection le(8.0, 2000.0);
  Rng rng(7);
  int leaders = 0;
  constexpr int kNodes = 2000, kRounds = 50;
  for (int r = 0; r < kRounds; ++r) {
    for (int n = 0; n < kNodes; ++n) leaders += le.should_lead(rng);
  }
  EXPECT_NEAR(static_cast<double>(leaders) / kRounds, 8.0, 1.0);
}

TEST(LeaderElection, Guards) {
  EXPECT_THROW(LeaderElection(0.0, 10.0), require_error);
  EXPECT_THROW(LeaderElection(1.0, 0.5), require_error);
  LeaderElection le(1.0, 10.0);
  EXPECT_THROW(le.update_size_estimate(0.0), require_error);
}

// --------------------------------------------------------------- derived

TEST(Derived, SumEstimate) {
  EXPECT_DOUBLE_EQ(sum_estimate(2.5, 100.0), 250.0);
  EXPECT_THROW(sum_estimate(1.0, -1.0), require_error);
}

TEST(Derived, ProductEstimate) {
  EXPECT_NEAR(product_estimate(2.0, 10.0), 1024.0, 1e-9);
  EXPECT_DOUBLE_EQ(product_estimate(0.0, 10.0), 0.0);
  // Survives magnitudes that would overflow naive pow chains of inputs.
  const double huge = product_estimate(1.001, 1e6);
  EXPECT_GT(huge, 1e300);
  EXPECT_THROW(product_estimate(-1.0, 10.0), require_error);
}

TEST(Derived, VarianceEstimate) {
  // Values {1, 3}: avg = 2, avg of squares = 5, variance = 1.
  EXPECT_DOUBLE_EQ(variance_estimate(5.0, 2.0), 1.0);
  // Rounding can push avg² past avg(x²); clamp at zero.
  EXPECT_DOUBLE_EQ(variance_estimate(4.0 - 1e-15, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(stddev_estimate(5.0, 2.0), 1.0);
}

// ---------------------------------------------------------------- epochs

TEST(Epoch, AdvanceRollsEpochs) {
  EpochMachine m(3);
  EXPECT_EQ(m.epoch(), 0u);
  EXPECT_FALSE(m.advance_cycle());
  EXPECT_FALSE(m.advance_cycle());
  EXPECT_TRUE(m.advance_cycle());  // completed epoch 0
  EXPECT_EQ(m.epoch(), 1u);
  EXPECT_EQ(m.cycle_in_epoch(), 0u);
}

TEST(Epoch, ClassifyTags) {
  EpochMachine m(5);
  m.adopt(3);
  EXPECT_EQ(m.classify(3), EpochMachine::TagAction::kAccept);
  EXPECT_EQ(m.classify(4), EpochMachine::TagAction::kAdopt);
  EXPECT_EQ(m.classify(2), EpochMachine::TagAction::kStale);
}

TEST(Epoch, AdoptJumpsAndResetsCycle) {
  EpochMachine m(5);
  m.advance_cycle();
  m.advance_cycle();
  EXPECT_EQ(m.cycle_in_epoch(), 2u);
  m.adopt(7);
  EXPECT_EQ(m.epoch(), 7u);
  EXPECT_EQ(m.cycle_in_epoch(), 0u);
  EXPECT_THROW(m.adopt(7), require_error);
  EXPECT_THROW(m.adopt(3), require_error);
}

TEST(Epoch, RejectsZeroGamma) { EXPECT_THROW(EpochMachine(0), require_error); }

TEST(JoinGate, FoundersParticipateImmediately) {
  const JoinGate g;
  EXPECT_TRUE(g.participates_in(0));
  EXPECT_TRUE(g.participates_in(5));
}

TEST(JoinGate, JoinersWaitForNextEpoch) {
  const JoinGate g = JoinGate::joined_during(4);
  EXPECT_FALSE(g.participates_in(4));
  EXPECT_TRUE(g.participates_in(5));
  EXPECT_EQ(g.active_from(), 5u);
}

// -------------------------------------------------------- multi-instance

TEST(MultiInstance, CombineDropsTails) {
  // t = 6: drop 2 lowest + 2 highest, average the middle 2.
  std::vector<double> est{1.0, 2.0, 99000.0, 101000.0, 1e7, 1e8};
  EXPECT_DOUBLE_EQ(robust_combine(est), 100000.0);
}

TEST(MultiInstance, SingleInstancePassesThrough) {
  std::vector<double> est{123.0};
  EXPECT_DOUBLE_EQ(robust_combine(est), 123.0);
}

}  // namespace
}  // namespace gossip::core
