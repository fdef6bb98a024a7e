// Tests for src/common: RNG determinism and distribution sanity, NodeId,
// requirement checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/node_id.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"

namespace gossip {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, ZeroSeedIsWellMixed) {
  Rng r(0);
  // A naive xoshiro seeded with all-zero state would emit zeros forever.
  std::set<std::uint64_t> distinct;
  for (int i = 0; i < 100; ++i) distinct.insert(r());
  EXPECT_EQ(distinct.size(), 100u);
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(11);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[r.below(kBound)];
  // Each bucket expects 10000; allow 5% relative deviation (>6 sigma).
  for (std::uint64_t b = 0; b < kBound; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBound, 500) << "bucket " << b;
  }
}

TEST(Rng, BelowRejectsZeroBound) {
  Rng r(1);
  EXPECT_THROW(r.below(0), require_error);
}

TEST(Rng, RangeInclusive) {
  Rng r(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(13);
  int hits = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(17);
  double sum = 0.0;
  constexpr int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / kTrials, 3.0, 0.05);
}

TEST(Rng, PoissonHasRequestedMeanAndVariance) {
  Rng r(19);
  constexpr int kTrials = 100000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kTrials; ++i) {
    const auto v = static_cast<double>(r.poisson(1.0));
    sum += v;
    sumsq += v * v;
  }
  const double mean = sum / kTrials;
  const double var = sumsq / kTrials - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  Rng r(23);
  constexpr int kTrials = 20000;
  double sum = 0.0;
  for (int i = 0; i < kTrials; ++i) sum += static_cast<double>(r.poisson(200.0));
  EXPECT_NEAR(sum / kTrials, 200.0, 1.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(29);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  r.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ShuffleIsUnbiasedOnFirstSlot) {
  Rng r(31);
  constexpr int kTrials = 60000;
  std::vector<int> firsts(3, 0);
  for (int t = 0; t < kTrials; ++t) {
    std::vector<int> v{0, 1, 2};
    r.shuffle(v);
    ++firsts[static_cast<std::size_t>(v[0])];
  }
  for (int c : firsts) EXPECT_NEAR(c, kTrials / 3, 800);
}

TEST(Rng, SampleDistinctProducesDistinctInRange) {
  Rng r(37);
  for (int trial = 0; trial < 100; ++trial) {
    auto sample = r.sample_distinct(50, 10);
    std::unordered_set<std::uint64_t> seen(sample.begin(), sample.end());
    EXPECT_EQ(seen.size(), 10u);
    for (auto v : sample) EXPECT_LT(v, 50u);
  }
}

TEST(Rng, SampleDistinctFullRange) {
  Rng r(41);
  auto sample = r.sample_distinct(8, 8);
  std::sort(sample.begin(), sample.end());
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(sample[i], i);
}

// Exact output and stream consumption on both sides of the scan/hash
// threshold: k=30 is the NEWSCAST bootstrap's draw, k=1000 a COUNT
// leader draw. These pin the order directly; the event engine's own
// golden (ScenarioGolden.ablation_atomicity) sees it only through a CSV.
TEST(Rng, SampleDistinctPinnedOnBothSidesOfScanLimit) {
  static_assert(30 <= Rng::kSampleScanLimit && 1000 > Rng::kSampleScanLimit);
  Rng small(1);
  const std::vector<std::uint64_t> expected{
      140563, 104072, 114805, 78255,  139417, 28710,  14207,  76228,
      173411, 110330, 186495, 191425, 186537, 133807, 119977, 178095,
      16090,  98265,  9163,   12754,  92641,  99290,  122153, 69950,
      80885,  42387,  77497,  170883, 150227, 196448};
  EXPECT_EQ(small.sample_distinct(199'999, 30), expected);
  EXPECT_EQ(small(), 202581184499657049ULL);

  // FNV-1a 64 over each value's eight bytes, low byte first.
  const auto fnv1a = [](const std::vector<std::uint64_t>& values) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t v : values) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  };
  Rng large(2);
  const auto sample = large.sample_distinct(10'000, 1'000);
  EXPECT_EQ(sample.size(), 1'000u);
  EXPECT_EQ(fnv1a(sample), 0x1320b420827e74d4ULL);
  EXPECT_EQ(large(), 4050273389719191843ULL);
}

TEST(Rng, SampleDistinctRejectsOversizedRequest) {
  Rng r(43);
  EXPECT_THROW(r.sample_distinct(3, 4), require_error);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(47);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(51), b(51);
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca(), cb());
}

TEST(NodeId, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.is_valid());
  EXPECT_EQ(id, NodeId::invalid());
}

TEST(NodeId, ValueRoundTrip) {
  NodeId id(42);
  EXPECT_TRUE(id.is_valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(NodeId, Ordering) {
  EXPECT_LT(NodeId(1), NodeId(2));
  EXPECT_EQ(NodeId(7), NodeId(7));
  EXPECT_NE(NodeId(7), NodeId(8));
}

TEST(NodeId, Hashable) {
  std::unordered_set<NodeId> s;
  s.insert(NodeId(1));
  s.insert(NodeId(1));
  s.insert(NodeId(2));
  EXPECT_EQ(s.size(), 2u);
}

TEST(Require, ThrowsWithContext) {
  try {
    GOSSIP_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const require_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
  }
}

}  // namespace
}  // namespace gossip
