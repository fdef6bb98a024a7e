// Tests for src/failure: the §6/§7 node-failure plans, the
// communication failure model (including the asymmetric response-loss
// semantics fig. 7b depends on) and the per-message fault draw both hosts
// of the §4 node share (Latency, message_delay).
#include <gtest/gtest.h>

#include <cmath>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "failure/comm_failure.hpp"
#include "failure/failure_plan.hpp"
#include "runtime/transport.hpp"

namespace gossip::failure {
namespace {

TEST(NoFailures, AlwaysEmpty) {
  NoFailures plan;
  for (std::uint32_t c = 0; c < 50; ++c) {
    const auto ev = plan.before_cycle(c, 1000);
    EXPECT_EQ(ev.kills, 0u);
    EXPECT_EQ(ev.joins, 0u);
  }
}

TEST(ProportionalCrash, KillsFloorOfCurrentLive) {
  ProportionalCrash plan(0.3);
  EXPECT_EQ(plan.before_cycle(0, 1000).kills, 300u);
  EXPECT_EQ(plan.before_cycle(5, 700).kills, 210u);
  EXPECT_EQ(plan.before_cycle(9, 10).kills, 3u);
  EXPECT_EQ(plan.before_cycle(0, 3).kills, 0u);  // floor(0.9)
  EXPECT_EQ(plan.before_cycle(0, 1000).joins, 0u);
}

TEST(ProportionalCrash, DecaySequenceMatchesTheorem1Model) {
  // Applying the plan repeatedly must give N(1-Pf)^i up to flooring —
  // the population model Theorem 1 assumes.
  ProportionalCrash plan(0.1);
  std::uint32_t live = 100000;
  for (std::uint32_t c = 0; c < 20; ++c) {
    live -= plan.before_cycle(c, live).kills;
  }
  EXPECT_NEAR(static_cast<double>(live), 100000.0 * std::pow(0.9, 20),
              30.0);
}

TEST(ProportionalCrash, RejectsBadProbability) {
  EXPECT_THROW(ProportionalCrash(1.0), require_error);
  EXPECT_THROW(ProportionalCrash(-0.1), require_error);
}

TEST(SuddenDeath, FiresExactlyOnce) {
  SuddenDeath plan(7, 0.5);
  for (std::uint32_t c = 0; c < 20; ++c) {
    const auto ev = plan.before_cycle(c, 1000);
    EXPECT_EQ(ev.kills, c == 7 ? 500u : 0u) << c;
  }
}

TEST(SuddenDeath, RejectsFullDeath) {
  EXPECT_THROW(SuddenDeath(0, 1.0), require_error);
}

TEST(Churn, KeepsSizeConstant) {
  Churn plan(250);
  const auto ev = plan.before_cycle(3, 10000);
  EXPECT_EQ(ev.kills, 250u);
  EXPECT_EQ(ev.joins, 250u);
}

TEST(Churn, NeverKillsLastNode) {
  Churn plan(100);
  const auto ev = plan.before_cycle(0, 50);
  EXPECT_EQ(ev.kills, 49u);
  EXPECT_EQ(ev.joins, 100u);
}

TEST(FailurePlan, TotalJoinsSumsEveryCyclesJoins) {
  // Drivers reserve their per-node arrays from total_joins, so it must
  // equal the joins before_cycle hands out over the run: Churn's rate
  // per cycle, without 32-bit wraparound, and none for any other plan.
  const Churn churn(250);
  const Churn wide(0x80000000u);
  const ProportionalCrash crash(0.1);
  const SuddenDeath death(2, 0.5);
  const ConstantCrash constant(10);
  const CorrelatedWaves waves(1, 2, 5);
  const EpochRestart restart(3);
  const NoFailures none;
  const FailurePlan* plans[] = {&churn, &wide,  &crash,   &death,
                                &constant, &waves, &restart, &none};
  for (const FailurePlan* plan : plans) {
    for (std::uint32_t cycles : {0u, 1u, 7u}) {
      std::uint64_t joins = 0;
      for (std::uint32_t c = 0; c < cycles; ++c) {
        joins += plan->before_cycle(c, 1000).joins;
      }
      EXPECT_EQ(plan->total_joins(cycles), joins) << "cycles " << cycles;
    }
  }
  EXPECT_EQ(wide.total_joins(4), 0x200000000u);
}

TEST(ConstantCrash, FixedRateNoJoins) {
  ConstantCrash plan(1000);
  const auto ev = plan.before_cycle(2, 100000);
  EXPECT_EQ(ev.kills, 1000u);
  EXPECT_EQ(ev.joins, 0u);
}

TEST(CorrelatedWaves, SchedulesContiguousIdBlocks) {
  // Trigger at cycle 3, 4 waves of 100 ids each: cycles 3..6 kill
  // [0,100), [100,200), [200,300), [300,400); nothing before or after.
  CorrelatedWaves plan(3, 4, 100);
  for (std::uint32_t c = 0; c < 12; ++c) {
    const auto ev = plan.before_cycle(c, 1000);
    EXPECT_EQ(ev.kills, 0u) << c;   // all kills are targeted
    EXPECT_EQ(ev.joins, 0u) << c;
    if (c >= 3 && c < 7) {
      const std::uint32_t wave = c - 3;
      EXPECT_EQ(ev.kill_lo, wave * 100) << c;
      EXPECT_EQ(ev.kill_hi, wave * 100 + 100) << c;
    } else {
      EXPECT_EQ(ev.kill_lo, 0u) << c;
      EXPECT_EQ(ev.kill_hi, 0u) << c;
    }
  }
}

TEST(CorrelatedWaves, TriggerAtCycleZeroFiresImmediately) {
  CorrelatedWaves plan(0, 1, 50);
  EXPECT_EQ(plan.before_cycle(0, 100).kill_hi, 50u);
  EXPECT_EQ(plan.before_cycle(1, 100).kill_hi, 0u);
}

TEST(CorrelatedWaves, RejectsDegenerateShapes) {
  EXPECT_THROW(CorrelatedWaves(0, 0, 100), require_error);  // no waves
  EXPECT_THROW(CorrelatedWaves(0, 3, 0), require_error);    // zero width
}

TEST(EpochRestart, FiresEveryPeriodAfterCycleZero) {
  EpochRestart plan(5);
  for (std::uint32_t c = 0; c < 21; ++c) {
    const auto ev = plan.before_cycle(c, 1000);
    EXPECT_EQ(ev.kills, 0u) << c;
    EXPECT_EQ(ev.joins, 0u) << c;
    EXPECT_EQ(ev.restart, c > 0 && c % 5 == 0) << c;
  }
}

TEST(EpochRestart, RejectsZeroPeriod) {
  EXPECT_THROW(EpochRestart(0), require_error);
}

TEST(CommFailure, NoneAlwaysCompletes) {
  auto model = CommFailureModel::none();
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(model.sample(rng), ExchangeOutcome::kCompleted);
  }
}

TEST(CommFailure, PureLinkFailureRate) {
  auto model = CommFailureModel::link_failure(0.4);
  Rng rng(2);
  int down = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    const auto outcome = model.sample(rng);
    ASSERT_TRUE(outcome == ExchangeOutcome::kLinkDown ||
                outcome == ExchangeOutcome::kCompleted);
    down += (outcome == ExchangeOutcome::kLinkDown);
  }
  EXPECT_NEAR(static_cast<double>(down) / kTrials, 0.4, 0.01);
}

TEST(CommFailure, MessageLossSplitsRequestAndResponse) {
  // With loss p: request lost w.p. p, response lost w.p. (1-p)p,
  // completed w.p. (1-p)².
  auto model = CommFailureModel::message_loss(0.2);
  Rng rng(3);
  int req = 0, resp = 0, done = 0;
  constexpr int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    switch (model.sample(rng)) {
      case ExchangeOutcome::kRequestLost: ++req; break;
      case ExchangeOutcome::kResponseLost: ++resp; break;
      case ExchangeOutcome::kCompleted: ++done; break;
      case ExchangeOutcome::kLinkDown: FAIL() << "no link failure here";
    }
  }
  EXPECT_NEAR(static_cast<double>(req) / kTrials, 0.2, 0.005);
  EXPECT_NEAR(static_cast<double>(resp) / kTrials, 0.16, 0.005);
  EXPECT_NEAR(static_cast<double>(done) / kTrials, 0.64, 0.005);
}

TEST(CommFailure, LinkCheckedBeforeMessages) {
  // With P_d = 1 nothing else is ever sampled.
  CommFailureModel model(1.0, 1.0);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.sample(rng), ExchangeOutcome::kLinkDown);
  }
}

TEST(CommFailure, RejectsBadProbabilities) {
  EXPECT_THROW(CommFailureModel(-0.1, 0.0), require_error);
  EXPECT_THROW(CommFailureModel(0.0, 1.5), require_error);
}

using LatencyKind = Latency::Kind;

TEST(Latency, FixedAlwaysSame) {
  const Latency lat{LatencyKind::kFixed, 42, 0};
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(lat.sample(rng), 42u);
}

TEST(Latency, UniformWithinBoundsAndCoversThem) {
  const Latency lat{LatencyKind::kUniform, 10, 13};
  Rng rng(2);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = lat.sample(rng);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 13u);
    lo |= (v == 10);
    hi |= (v == 13);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Latency, ExponentialMeanAboveBase) {
  const Latency lat{LatencyKind::kExponential, 100, 50};
  Rng rng(3);
  double sum = 0.0;
  constexpr int kTrials = 50000;
  for (int i = 0; i < kTrials; ++i) {
    sum += static_cast<double>(lat.sample(rng));
  }
  EXPECT_NEAR(sum / kTrials, 150.0, 2.0);
}

TEST(Latency, EachKindConsumesExactlyItsDraws) {
  // A twin stream replays the draws each kind must make — none for
  // kNone and kFixed, one below(hi - lo + 1) for kUniform, one
  // exponential(hi) for kExponential — and the two streams then agree.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed), twin(seed);
    EXPECT_EQ((Latency{LatencyKind::kNone, 0, 0}.sample(rng)), 0u);
    EXPECT_EQ((Latency{LatencyKind::kFixed, 7, 0}.sample(rng)), 7u);
    EXPECT_EQ((Latency{LatencyKind::kUniform, 5, 40}.sample(rng)),
              5 + twin.below(36));
    EXPECT_EQ((Latency{LatencyKind::kExponential, 9, 30}.sample(rng)),
              9 + static_cast<std::uint64_t>(twin.exponential(30.0)));
    EXPECT_EQ(rng(), twin());
  }
}

TEST(Latency, TransportRejectsUnsatisfiableBounds) {
  using runtime::FaultConfig;
  using runtime::LoopbackTransport;
  EXPECT_THROW(
      LoopbackTransport(FaultConfig{0.0, {LatencyKind::kUniform, 5, 4}, 1}),
      require_error);
  EXPECT_THROW(LoopbackTransport(
                   FaultConfig{0.0, {LatencyKind::kExponential, 5, 0}, 1}),
               require_error);
  EXPECT_NO_THROW(
      LoopbackTransport(FaultConfig{0.0, {LatencyKind::kUniform, 4, 4}, 1}));
}

TEST(MessageDelay, LossRateRespected) {
  const Latency lat{LatencyKind::kUniform, 10, 20};
  Rng rng(4);
  int lost = 0;
  constexpr int kMsgs = 40000;
  for (int i = 0; i < kMsgs; ++i) {
    const auto delay = message_delay(0.25, lat, rng);
    if (!delay) {
      ++lost;
      continue;
    }
    ASSERT_GE(*delay, 10u);
    ASSERT_LE(*delay, 20u);
  }
  EXPECT_NEAR(static_cast<double>(lost) / kMsgs, 0.25, 0.01);
}

TEST(MessageDelay, LossDrawThenDelayDraw) {
  // p > 0: one chance(p), then the latency's draws when not lost.
  // p = 0: no loss draw at all.
  const Latency lat{LatencyKind::kUniform, 100, 199};
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed), twin(seed);
    const auto delay = message_delay(0.5, lat, rng);
    if (twin.chance(0.5)) {
      EXPECT_FALSE(delay.has_value());
    } else {
      EXPECT_EQ(delay, 100 + twin.below(100));
    }
    EXPECT_EQ(rng(), twin());
  }
  Rng rng(9), twin(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(message_delay(0.0, Latency{}, rng), 0u);
  }
  EXPECT_EQ(rng(), twin());
}

}  // namespace
}  // namespace gossip::failure
