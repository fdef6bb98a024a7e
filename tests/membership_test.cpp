// Tests for src/membership: NEWSCAST cache laws, exchange/merge dynamics,
// bootstrap, joins, crash aging-out, and overlay health under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "membership/newscast.hpp"
#include "membership/newscast_cache.hpp"
#include "overlay/population.hpp"

namespace gossip::membership {
namespace {

TEST(NewscastCache, CapacityEnforced) {
  NewscastCache c(3);
  for (std::uint32_t i = 0; i < 10; ++i) {
    c.insert(CacheEntry{NodeId(i), i});
  }
  EXPECT_EQ(c.size(), 3u);
  // The three freshest survive: ids 7, 8, 9.
  EXPECT_TRUE(c.contains(NodeId(9)));
  EXPECT_TRUE(c.contains(NodeId(8)));
  EXPECT_TRUE(c.contains(NodeId(7)));
  EXPECT_FALSE(c.contains(NodeId(0)));
}

TEST(NewscastCache, RejectsZeroCapacityAndInvalidId) {
  EXPECT_THROW(NewscastCache(0), require_error);
  NewscastCache c(2);
  EXPECT_THROW(c.insert(CacheEntry{NodeId::invalid(), 1}), require_error);
}

TEST(CacheEntryPacked, EightBytesAndGuardedClock) {
  // The packed descriptor halves the entry-pool memory stream; the
  // converting constructor is the overflow backstop behind the
  // spec-level cycles guard (event-engine simulated time included).
  static_assert(sizeof(CacheEntry) == 8);
  const CacheEntry max_ok{NodeId(1), CacheEntry::kMaxTimestamp};
  EXPECT_EQ(max_ok.timestamp, 0xffffffffu);
  EXPECT_THROW(CacheEntry(NodeId(1), CacheEntry::kMaxTimestamp + 1),
               require_error);
}

TEST(CacheEntryPacked, ExpireAcceptsWideCutoff) {
  // expire_older_than keeps its 64-bit parameter: a cutoff beyond the
  // packed clock simply drops everything rather than wrapping.
  NewscastCache c(4);
  c.insert(CacheEntry{NodeId(1), 5});
  c.insert(CacheEntry{NodeId(2), CacheEntry::kMaxTimestamp});
  c.expire_older_than(CacheEntry::kMaxTimestamp + 1);
  EXPECT_TRUE(c.empty());
}

TEST(NewscastCache, DuplicateKeepsFreshest) {
  NewscastCache c(4);
  c.insert(CacheEntry{NodeId(1), 5});
  c.insert(CacheEntry{NodeId(1), 9});
  c.insert(CacheEntry{NodeId(1), 2});
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.entries()[0].timestamp, 9u);
}

TEST(NewscastCache, EntriesSortedFreshestFirst) {
  NewscastCache c(5);
  c.insert(CacheEntry{NodeId(1), 3});
  c.insert(CacheEntry{NodeId(2), 7});
  c.insert(CacheEntry{NodeId(3), 5});
  const auto es = c.entries();
  EXPECT_EQ(es[0].id, NodeId(2));
  EXPECT_EQ(es[1].id, NodeId(3));
  EXPECT_EQ(es[2].id, NodeId(1));
}

TEST(NewscastCache, MergeDropsSelfAndAddsSenderFresh) {
  NewscastCache c(4);
  c.insert(CacheEntry{NodeId(1), 1});
  const std::vector<CacheEntry> received{{NodeId(0), 2},  // self — dropped
                                         {NodeId(2), 3}};
  c.merge(received, CacheEntry{NodeId(9), 4}, NodeId(0));
  EXPECT_FALSE(c.contains(NodeId(0)));
  EXPECT_TRUE(c.contains(NodeId(1)));
  EXPECT_TRUE(c.contains(NodeId(2)));
  EXPECT_TRUE(c.contains(NodeId(9)));
}

TEST(NewscastCache, MergeKeepsFreshestAcrossSides) {
  NewscastCache c(2);
  c.insert(CacheEntry{NodeId(1), 10});
  c.insert(CacheEntry{NodeId(2), 1});
  const std::vector<CacheEntry> received{{NodeId(2), 20}, {NodeId(3), 15}};
  c.merge(received, CacheEntry{NodeId::invalid(), 0}, NodeId(0));
  // Union: 1@10, 2@20, 3@15 — capacity 2 keeps 2@20 and 3@15.
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(c.contains(NodeId(2)));
  EXPECT_TRUE(c.contains(NodeId(3)));
  EXPECT_FALSE(c.contains(NodeId(1)));
}

TEST(NewscastCache, DeterministicTieBreak) {
  // Same timestamps: survivors are the smallest ids, reproducibly.
  NewscastCache a(2), b(2);
  for (auto* c : {&a, &b}) {
    c->insert(CacheEntry{NodeId(5), 1});
    c->insert(CacheEntry{NodeId(3), 1});
    c->insert(CacheEntry{NodeId(8), 1});
  }
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.entries()[0].id, b.entries()[0].id);
  EXPECT_EQ(a.entries()[1].id, b.entries()[1].id);
  EXPECT_EQ(a.entries()[0].id, NodeId(3));
  EXPECT_EQ(a.entries()[1].id, NodeId(5));
}

TEST(NewscastCache, SampleUniformOverEntries) {
  NewscastCache c(4);
  for (std::uint32_t i = 1; i <= 4; ++i) c.insert(CacheEntry{NodeId(i), i});
  Rng rng(3);
  std::vector<int> counts(5, 0);
  constexpr int kTrials = 40000;
  for (int t = 0; t < kTrials; ++t) ++counts[c.sample(rng).value()];
  for (std::uint32_t i = 1; i <= 4; ++i) {
    EXPECT_NEAR(counts[i], kTrials / 4, 600) << i;
  }
}

TEST(NewscastCache, SampleEmptyIsInvalid) {
  NewscastCache c(2);
  Rng rng(1);
  EXPECT_EQ(c.sample(rng), NodeId::invalid());
}

TEST(NewscastCache, ExpireOlderThan) {
  NewscastCache c(5);
  c.insert(CacheEntry{NodeId(1), 1});
  c.insert(CacheEntry{NodeId(2), 5});
  c.insert(CacheEntry{NodeId(3), 9});
  c.expire_older_than(5);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.contains(NodeId(1)));
}

TEST(NewscastNetwork, BootstrapFillsDistinctOthers) {
  NewscastNetwork net(10);
  Rng rng(5);
  net.bootstrap_random(50, 0, rng);
  for (std::uint32_t u = 0; u < 50; ++u) {
    const auto& c = net.cache(NodeId(u));
    EXPECT_EQ(c.size(), 10u);
    EXPECT_FALSE(c.contains(NodeId(u)));
  }
}

TEST(NewscastNetwork, BootstrapSmallNetworkCapsFill) {
  NewscastNetwork net(30);
  Rng rng(7);
  net.bootstrap_random(5, 0, rng);
  for (std::uint32_t u = 0; u < 5; ++u) {
    EXPECT_EQ(net.cache(NodeId(u)).size(), 4u);
  }
}

// Pins the bootstrap's contents, not just its shape: every slot equals a
// NewscastCache built by inserting, in draw order, the ids a twin Rng
// draws for that node, and the bootstrap consumes exactly those draws.
// Every NEWSCAST golden rests on this.
TEST(NewscastNetwork, BootstrapMatchesMergeReference) {
  struct Shape {
    std::uint32_t n;
    std::size_t c;
  };
  const Shape shapes[] = {{2, 1},   {2, 30},  {5, 30},   {31, 30},
                          {32, 30}, {300, 8}, {1000, 1}, {1000, 64}};
  const auto expect_matches_reference = [](const NewscastNetwork& net,
                                           std::uint32_t n, std::size_t c,
                                           std::uint64_t now, Rng& twin) {
    const std::size_t fill = std::min<std::size_t>(c, n - 1);
    for (std::uint32_t u = 0; u < n; ++u) {
      NewscastCache reference(c);
      for (std::uint64_t raw : twin.sample_distinct(n - 1, fill)) {
        const auto v = static_cast<std::uint32_t>(raw >= u ? raw + 1 : raw);
        reference.insert(CacheEntry{NodeId(v), now});
      }
      const auto got = net.view(NodeId(u));
      const auto want = reference.entries();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                             want.end()))
          << "n=" << n << " c=" << c << " now=" << now << " node " << u;
    }
  };
  for (const Shape& s : shapes) {
    for (std::uint64_t seed : {11u, 12u}) {
      for (std::uint64_t now : {0u, 7u}) {
        NewscastNetwork net(s.c);
        Rng rng(seed);
        Rng twin(seed);
        net.bootstrap_random(s.n, now, rng);
        ASSERT_EQ(net.size(), s.n);
        expect_matches_reference(net, s.n, s.c, now, twin);
        EXPECT_EQ(rng(), twin()) << "n=" << s.n << " c=" << s.c;
      }
    }
  }

  // A network that grew through joins, then bootstraps again, must be
  // indistinguishable from a fresh one: same views, and the same views
  // after further cycles. The joins leave merge marks at small epochs,
  // which the first cycles would hit if the bootstrap kept them.
  constexpr std::uint32_t kNodes = 40;
  NewscastNetwork grown(6);
  Rng rng(17);
  grown.bootstrap_random(kNodes, 0, rng);
  for (std::uint32_t id = kNodes; id < kNodes + 10; ++id) {
    grown.add_node(NodeId(id), NodeId(id % 7), 1);
  }

  NewscastNetwork fresh(6);
  Rng a(23);
  Rng b(23);
  grown.bootstrap_random(kNodes, 5, a);
  fresh.bootstrap_random(kNodes, 5, b);
  overlay::Population pop(kNodes);
  for (std::uint64_t cycle = 5; cycle <= 8; ++cycle) {
    ASSERT_EQ(grown.size(), fresh.size());
    for (std::uint32_t u = 0; u < kNodes; ++u) {
      const auto g = grown.view(NodeId(u));
      const auto f = fresh.view(NodeId(u));
      ASSERT_TRUE(std::equal(g.begin(), g.end(), f.begin(), f.end()))
          << "cycle " << cycle << " node " << u;
    }
    grown.run_cycle(pop, cycle + 1, a);
    fresh.run_cycle(pop, cycle + 1, b);
  }
}

TEST(NewscastNetwork, ExchangeIsSymmetricInformationFlow) {
  NewscastNetwork net(4);
  Rng rng(9);
  net.bootstrap_random(8, 0, rng);
  net.exchange(NodeId(0), NodeId(1), 5);
  // Each side now holds a fresh descriptor of the other.
  EXPECT_TRUE(net.cache(NodeId(0)).contains(NodeId(1)));
  EXPECT_TRUE(net.cache(NodeId(1)).contains(NodeId(0)));
  EXPECT_THROW(net.exchange(NodeId(2), NodeId(2), 5), require_error);
}

TEST(NewscastNetwork, ExchangeUsesPreMergeSnapshot) {
  // b must merge what a had *before* a absorbed b's cache, not after —
  // otherwise b's stale entries echo straight back.
  NewscastNetwork net(4);
  Rng rng(11);
  net.bootstrap_random(6, 0, rng);
  // Plant one distinctive fresh entry on each side; capacity 4 guarantees
  // both survive the merge alongside the fresh self-descriptors.
  net.cache(NodeId(0)).insert(CacheEntry{NodeId(2), 100});
  net.cache(NodeId(1)).insert(CacheEntry{NodeId(3), 100});
  net.exchange(NodeId(0), NodeId(1), 101);
  EXPECT_TRUE(net.cache(NodeId(1)).contains(NodeId(2)));
  EXPECT_TRUE(net.cache(NodeId(0)).contains(NodeId(3)));
}

TEST(NewscastNetwork, JoinCopiesContactView) {
  NewscastNetwork net(5);
  Rng rng(13);
  net.bootstrap_random(10, 0, rng);
  overlay::Population pop(10);
  const NodeId fresh = pop.add();
  net.add_node(fresh, NodeId(4), 7);
  EXPECT_TRUE(net.cache(fresh).contains(NodeId(4)));
  EXPECT_FALSE(net.cache(fresh).contains(fresh));
  EXPECT_TRUE(net.cache(NodeId(4)).contains(fresh));
  EXPECT_THROW(net.add_node(NodeId(20), NodeId(0), 7), require_error);
}

TEST(NewscastNetwork, CyclesKeepLiveViewConnected) {
  NewscastNetwork net(20);
  Rng rng(17);
  net.bootstrap_random(300, 0, rng);
  overlay::Population pop(300);
  for (std::uint64_t cycle = 1; cycle <= 10; ++cycle) {
    net.run_cycle(pop, cycle, rng);
    EXPECT_TRUE(net.live_view_connected(pop)) << cycle;
  }
}

TEST(NewscastNetwork, CrashedPeersAgeOutOfCaches) {
  // The §4.4 repair property: crashed nodes stop injecting fresh
  // descriptors, so within a few cycles no live cache mentions them.
  NewscastNetwork net(20);
  Rng rng(19);
  net.bootstrap_random(400, 0, rng);
  overlay::Population pop(400);
  for (std::uint64_t cycle = 1; cycle <= 3; ++cycle) {
    net.run_cycle(pop, cycle, rng);
  }
  // Kill 25%.
  for (std::uint32_t i = 0; i < 100; ++i) pop.kill(NodeId(i * 4));
  for (std::uint64_t cycle = 4; cycle <= 18; ++cycle) {
    net.run_cycle(pop, cycle, rng);
  }
  std::size_t stale = 0, total = 0;
  for (NodeId u : pop.live()) {
    for (const CacheEntry& e : net.cache(u).entries()) {
      ++total;
      if (!pop.alive(e.id)) ++stale;
    }
  }
  EXPECT_LT(static_cast<double>(stale) / static_cast<double>(total), 0.01);
  EXPECT_TRUE(net.live_view_connected(pop));
}

TEST(NewscastNetwork, SurvivesMassiveChurn) {
  // Replace 10% of the network every cycle for 20 cycles; the live view
  // must stay connected (this is what fig. 6b leans on).
  NewscastNetwork net(20);
  Rng rng(23);
  net.bootstrap_random(200, 0, rng);
  overlay::Population pop(200);
  for (std::uint64_t cycle = 1; cycle <= 20; ++cycle) {
    for (int i = 0; i < 20; ++i) {
      pop.kill(pop.sample_live(rng));
      const NodeId contact = pop.sample_live(rng);
      const NodeId fresh = pop.add();
      net.add_node(fresh, contact, cycle);
    }
    net.run_cycle(pop, cycle, rng);
    EXPECT_TRUE(net.live_view_connected(pop)) << cycle;
  }
  EXPECT_EQ(pop.live_count(), 200u);
}

TEST(NewscastPeerSampler, SamplesFromOwnCache) {
  NewscastNetwork net(5);
  Rng rng(29);
  net.bootstrap_random(30, 0, rng);
  NewscastPeerSampler sampler(net);
  for (int t = 0; t < 200; ++t) {
    const NodeId pick = sampler.sample(NodeId(3), rng);
    EXPECT_TRUE(net.cache(NodeId(3)).contains(pick));
  }
}

TEST(NewscastNetwork, SelfNeverCached) {
  NewscastNetwork net(8);
  Rng rng(31);
  net.bootstrap_random(100, 0, rng);
  overlay::Population pop(100);
  for (std::uint64_t cycle = 1; cycle <= 8; ++cycle) {
    net.run_cycle(pop, cycle, rng);
  }
  for (std::uint32_t u = 0; u < 100; ++u) {
    EXPECT_FALSE(net.cache(NodeId(u)).contains(NodeId(u))) << u;
  }
}

}  // namespace
}  // namespace gossip::membership
