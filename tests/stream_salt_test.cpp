// The compile-time stream-salt registry (src/common/stream_salt.hpp).
//
//  * Pinned values: every named salt and keying multiplier is frozen to
//    the exact hex constant the scattered call sites used before the
//    registry centralized them — a silent renumber would re-key every
//    RNG stream and shift all pinned goldens at once.
//  * Distinctness: the static_asserts in the header already make a
//    colliding pair a compile error; the runtime checks here re-state
//    the property so a future registry rewrite (e.g. dropping the
//    asserts) still has a failing test to answer to.
//  * Key derivation: node_stream_key / agg_round_salt /
//    newscast_round_salt must match the literal formulas the engines
//    used historically, bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/rng.hpp"
#include "common/stream_salt.hpp"

namespace gossip::salt {
namespace {

TEST(StreamSaltTest, PinnedStreamSaltValues) {
  EXPECT_EQ(kEngineInitValues, 0xabcdULL);
  EXPECT_EQ(kEngineGraph, 0x715ea7f0c9e2d3b1ULL);
  EXPECT_EQ(kEngineFaults, 0x5bd1e995cc9e2d51ULL);
  EXPECT_EQ(kIntraRepNewscast, 0x6e65777363617374ULL);
  EXPECT_EQ(kIntraRepAgg, 0x6167677265676174ULL);
  EXPECT_EQ(kDriftDelta, 0x6472696674ULL);
  EXPECT_EQ(kAdversaryMembership, 0x62797a616e74ULL);
  EXPECT_EQ(kRuntimeDriver, 0xd21fe7a9b4c3580fULL);
  EXPECT_EQ(kRuntimeWorkerPool, 0x9c0b5e1fd2a68734ULL);
}

TEST(StreamSaltTest, PinnedMultiplierValues) {
  EXPECT_EQ(kMulCycle, 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(kMulNode, 0xd1342543de82ef95ULL);
  EXPECT_EQ(kMulAggRound, 0x94d049bb133111ebULL);
  EXPECT_EQ(kMulNewscastRound, 0xbf58476d1ce4e5b9ULL);
  EXPECT_EQ(kMulSweepPoint, 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(kMulSweepRep, 0xbf58476d1ce4e5b9ULL);
  EXPECT_EQ(kMulAdversaryId, 0xda942042e4dd58b5ULL);
}

// The tables must enumerate every named constant: a salt added to the
// header but not its table escapes the compile-time distinctness check.
TEST(StreamSaltTest, TablesCoverEveryNamedConstant) {
  const std::set<std::uint64_t> streams(kStreamSalts.begin(),
                                        kStreamSalts.end());
  for (std::uint64_t s :
       {kEngineInitValues, kEngineGraph, kEngineFaults, kIntraRepNewscast,
        kIntraRepAgg, kDriftDelta, kAdversaryMembership, kRuntimeDriver,
        kRuntimeWorkerPool}) {
    EXPECT_TRUE(streams.count(s)) << "unregistered stream salt " << s;
  }
  const std::set<std::uint64_t> node_muls(kNodeStreamMultipliers.begin(),
                                          kNodeStreamMultipliers.end());
  for (std::uint64_t m :
       {kMulCycle, kMulNode, kMulAggRound, kMulNewscastRound}) {
    EXPECT_TRUE(node_muls.count(m)) << "unregistered node multiplier " << m;
  }
  const std::set<std::uint64_t> sweep_muls(kSweepMultipliers.begin(),
                                           kSweepMultipliers.end());
  for (std::uint64_t m : {kMulSweepPoint, kMulSweepRep}) {
    EXPECT_TRUE(sweep_muls.count(m)) << "unregistered sweep multiplier "
                                     << m;
  }
}

// All-pairs distinctness, per domain. A std::set collapses duplicates,
// so size preservation is exactly the no-collision property.
TEST(StreamSaltTest, AllPairsDistinctWithinEachDomain) {
  const std::set<std::uint64_t> streams(kStreamSalts.begin(),
                                        kStreamSalts.end());
  EXPECT_EQ(streams.size(), kStreamSalts.size());
  const std::set<std::uint64_t> node_muls(kNodeStreamMultipliers.begin(),
                                          kNodeStreamMultipliers.end());
  EXPECT_EQ(node_muls.size(), kNodeStreamMultipliers.size());
  const std::set<std::uint64_t> sweep_muls(kSweepMultipliers.begin(),
                                           kSweepMultipliers.end());
  EXPECT_EQ(sweep_muls.size(), kSweepMultipliers.size());
}

// node_stream_key must reproduce the literal expression the intra-rep
// engine inlined before the registry existed.
TEST(StreamSaltTest, NodeStreamKeyMatchesHistoricalFormula) {
  const std::uint64_t seed = 0x1234'5678'9abc'def0ULL;
  for (std::uint32_t cycle : {0u, 1u, 7u, 1000u}) {
    for (std::uint32_t node : {0u, 3u, 65535u}) {
      const std::uint64_t phase = kIntraRepNewscast;
      const std::uint64_t expected =
          seed ^ (static_cast<std::uint64_t>(cycle) + 1) * kMulCycle ^
          (static_cast<std::uint64_t>(node) + 1) * kMulNode ^ phase;
      EXPECT_EQ(node_stream_key(seed, cycle, node, phase), expected);
    }
  }
}

TEST(StreamSaltTest, RoundSaltsMatchHistoricalFormulas) {
  for (std::uint32_t round : {0u, 1u, 2u, 41u}) {
    EXPECT_EQ(agg_round_salt(round),
              kIntraRepAgg ^
                  (static_cast<std::uint64_t>(round) * kMulAggRound));
    EXPECT_EQ(newscast_round_salt(round),
              kIntraRepNewscast ^ (static_cast<std::uint64_t>(round) *
                                   kMulNewscastRound));
  }
}

// The PR 4 bug class, stated as a test: with the round multiplier
// distinct from the cycle multiplier, (cycle, round) pairs that used to
// alias onto one stream now key different streams.
TEST(StreamSaltTest, CycleRoundPairsNoLongerAlias) {
  const std::uint64_t seed = 99;
  // Under the old scheme (round reusing kMulCycle), (c=0, r=3) and
  // (c=2, r=1) collapse: (0+1+3)*mul == (2+1+1)*mul.
  std::uint64_t a = node_stream_key(seed, 0, 5, agg_round_salt(3));
  std::uint64_t b = node_stream_key(seed, 2, 5, agg_round_salt(1));
  EXPECT_NE(a, b);
  // And the keys really feed distinct generators.
  Rng ra(splitmix64(a));
  Rng rb(splitmix64(b));
  EXPECT_NE(ra(), rb());
}

// Same key in, same stream out — the registry helpers are pure.
TEST(StreamSaltTest, KeyDerivationIsReproducible) {
  std::uint64_t k1 = node_stream_key(7, 3, 11, kDriftDelta);
  std::uint64_t k2 = node_stream_key(7, 3, 11, kDriftDelta);
  EXPECT_EQ(k1, k2);
  Rng r1(splitmix64(k1));
  Rng r2(splitmix64(k2));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r1(), r2());
  }
}

}  // namespace
}  // namespace gossip::salt
