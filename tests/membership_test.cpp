// Tests for src/membership: NEWSCAST cache laws, exchange/merge dynamics,
// bootstrap, joins, crash aging-out, and overlay health under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "experiment/parallel_runner.hpp"
#include "membership/newscast.hpp"
#include "membership/newscast_cache.hpp"
#include "overlay/population.hpp"

namespace gossip::membership {
namespace {

/// The NEWSCAST merge spelled out, independent of the kernel every cache
/// runs: concatenate the view, `received` and the fresh descriptor,
/// stable-sort by `fresher`, keep the first copy of each id, drop `self`
/// and invalid ids, and cut at c.
std::vector<CacheEntry> naive_merge(std::span<const CacheEntry> view,
                                    std::span<const CacheEntry> received,
                                    CacheEntry fresh, NodeId self,
                                    std::size_t c) {
  std::vector<CacheEntry> all(view.begin(), view.end());
  all.insert(all.end(), received.begin(), received.end());
  all.push_back(fresh);
  std::stable_sort(all.begin(), all.end(), fresher);
  std::vector<CacheEntry> kept;
  for (const CacheEntry& e : all) {
    if (kept.size() == c) break;
    const bool dup = std::any_of(kept.begin(), kept.end(),
                                 [&](const CacheEntry& k) { return k.id == e.id; });
    if (!dup && e.id != self && e.id.is_valid()) kept.push_back(e);
  }
  return kept;
}

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

// Pins the bootstrap's contents, not just its shape: every slot equals the
// naive merge of the ids a twin Rng draws for that node, inserted in draw
// order, and the bootstrap consumes exactly those draws.
// Every NEWSCAST golden rests on this. The shapes put the fill on both
// sides of Rng::kSampleScanLimit, at n - 1 below c on both sides, and
// across several of the per-node pass's 1024-node jobs; each runs
// serially, with the jobs in reverse order and on a 4-thread pool.
TEST(NewscastNetwork, BootstrapMatchesMergeReference) {
  struct Shape {
    std::uint32_t n;
    std::size_t c;
  };
  const Shape shapes[] = {{2, 1},     {2, 30},   {5, 30},    {31, 30},
                          {32, 30},   {300, 8},  {1000, 1},  {1000, 64},
                          {300, 100}, {80, 100}, {2500, 30}};
  experiment::ParallelRunner pool(4);
  const overlay::ParallelFor on_pool =
      [&pool](std::size_t count,
              const std::function<void(std::size_t)>& job) {
        pool.run(count, job);
      };
  const overlay::ParallelFor reversed =
      [](std::size_t count, const std::function<void(std::size_t)>& job) {
        for (std::size_t c = count; c-- > 0;) job(c);
      };
  const std::pair<const char*, const overlay::ParallelFor*> schedules[] = {
      {"serial", nullptr}, {"reversed", &reversed}, {"pool", &on_pool}};
  for (const Shape& s : shapes) {
    const std::size_t fill = std::min<std::size_t>(s.c, s.n - 1);
    for (std::uint64_t seed : {11u, 12u}) {
      for (std::uint64_t now : {0u, 7u}) {
        Rng twin(seed);
        std::vector<std::vector<CacheEntry>> reference(s.n);
        for (std::uint32_t u = 0; u < s.n; ++u) {
          for (std::uint64_t raw : twin.sample_distinct(s.n - 1, fill)) {
            const auto v =
                static_cast<std::uint32_t>(raw >= u ? raw + 1 : raw);
            reference[u] = naive_merge(reference[u], {},
                                       CacheEntry{NodeId(v), now},
                                       NodeId::invalid(), s.c);
          }
        }
        const std::uint64_t next = twin();
        for (const auto& [schedule, par] : schedules) {
          NewscastNetwork net(s.c);
          Rng rng(seed);
          net.bootstrap_random(s.n, now, rng, par);
          ASSERT_EQ(net.size(), s.n);
          for (std::uint32_t u = 0; u < s.n; ++u) {
            const auto got = net.view(NodeId(u));
            const auto& want = reference[u];
            ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                                   want.end()))
                << "n=" << s.n << " c=" << s.c << " now=" << now << " "
                << schedule << " node " << u;
          }
          EXPECT_EQ(rng(), next)
              << "n=" << s.n << " c=" << s.c << " " << schedule;
        }
      }
    }
  }

  // A network that grew through joins, then bootstraps again, must be
  // indistinguishable from a fresh one: same views, and the same views
  // after further cycles. Its merge buffers outlive the bootstrap, sized
  // for more ids than the new network has, so no merge state may carry
  // over from its previous life.
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

// -------------------------------- differential: the naive merge

// Every NewscastNetwork merge path must leave exactly the views that
// naive_merge computes from the pre-operation snapshots. The mirror
// holds one reference view per node and applies each operation to both
// sides: exchange on the default and on caller-owned buffers,
// exchange_partial under all four flag pairs, joins, and inserts.
class MergeMirror {
public:
  MergeMirror(std::size_t c, std::uint32_t n, std::uint64_t now, Rng& rng)
      : c_(c), net_(c) {
    net_.bootstrap_random(n, now, rng);
    for (std::uint32_t u = 0; u < n; ++u) {
      const auto view = net_.view(NodeId(u));
      ref_.emplace_back(view.begin(), view.end());
    }
  }

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(ref_.size());
  }

  void exchange(NewscastNetwork::MergeBuffers* buffers, NodeId a, NodeId b,
                std::uint64_t now) {
    partial_reference(a, b, now, true, true);
    if (buffers != nullptr) {
      net_.exchange(*buffers, a, b, now);
    } else {
      net_.exchange(a, b, now);
    }
  }

  void exchange_partial(NewscastNetwork::MergeBuffers& buffers, NodeId a,
                        NodeId b, std::uint64_t now, bool a_sends,
                        bool b_sends) {
    partial_reference(a, b, now, a_sends, b_sends);
    net_.exchange_partial(buffers, a, b, now, a_sends, b_sends);
  }

  void add_node(NodeId contact, std::uint64_t now) {
    const NodeId id(size());
    ref_.push_back(naive_merge({}, ref_[contact.value()],
                               CacheEntry{contact, now}, id, c_));
    insert_reference(contact, CacheEntry{id, now});
    net_.add_node(id, contact, now);
  }

  void insert(NodeId u, CacheEntry e) {
    insert_reference(u, e);
    net_.cache(u).insert(e);
  }

  void expect_matches(NodeId u, const std::string& op) const {
    const auto got = net_.view(u);
    const auto& want = ref_[u.value()];
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << op << ": node " << u.value() << " holds " << got.size()
        << " entries, reference " << want.size();
  }

  void expect_all_match(const std::string& op) const {
    ASSERT_EQ(net_.size(), ref_.size()) << op;
    for (std::uint32_t u = 0; u < size(); ++u) {
      ASSERT_NO_FATAL_FAILURE(expect_matches(NodeId(u), op));
    }
  }

private:
  void insert_reference(NodeId u, CacheEntry e) {
    ref_[u.value()] =
        naive_merge(ref_[u.value()], {}, e, NodeId::invalid(), c_);
  }

  void partial_reference(NodeId a, NodeId b, std::uint64_t now, bool a_sends,
                         bool b_sends) {
    const std::vector<CacheEntry> snap_a = ref_[a.value()];
    const std::vector<CacheEntry> snap_b = ref_[b.value()];
    const std::vector<CacheEntry> none;
    ref_[b.value()] = naive_merge(snap_b, a_sends ? snap_a : none,
                                  CacheEntry{a, now}, b, c_);
    ref_[a.value()] = naive_merge(snap_a, b_sends ? snap_b : none,
                                  CacheEntry{b, now}, a, c_);
  }

  std::size_t c_;
  NewscastNetwork net_;
  std::vector<std::vector<CacheEntry>> ref_;
};

TEST(NewscastNetwork, EveryMergePathMatchesNaiveMerge) {
  struct Shape {
    std::size_t c;
    std::uint32_t n;
  };
  // Views shorter than c (n <= c) and full views, at every c the
  // simulators use and at the ends of the range.
  const Shape shapes[] = {{1, 3},   {1, 40},  {2, 3},    {2, 40},
                          {30, 12}, {30, 200}, {64, 40}, {64, 300}};
  constexpr int kOps = 2500;
  constexpr std::uint32_t kMaxJoins = 60;
  for (const Shape& s : shapes) {
    for (const std::uint64_t seed : {101u, 202u}) {
      // The second seed runs at the top of the 32-bit logical clock.
      std::uint64_t now =
          seed == 101u ? 0 : CacheEntry::kMaxTimestamp - kOps - 8;
      Rng rng(seed * 31 + s.c);
      MergeMirror mirror(s.c, s.n, now, rng);
      // Caller-owned buffers sized by their first merge, before any join
      // grows the network past them.
      NewscastNetwork::MergeBuffers buffers;
      std::uint32_t joins = 0;
      const auto pick = [&] {
        return NodeId(static_cast<std::uint32_t>(rng.below(mirror.size())));
      };
      const auto pick_pair = [&] {
        const NodeId a = pick();
        NodeId b = pick();
        while (b == a) b = pick();
        return std::pair{a, b};
      };
      // An id at most 3 cycles stale, sometimes exactly `now`, and
      // sometimes one the network has not registered yet.
      const auto planted = [&](NodeId id) {
        return CacheEntry{id, now - rng.below(std::min<std::uint64_t>(
                                        now + 1, 4))};
      };
      for (int op = 0; op < kOps; ++op) {
        if (rng.chance(0.5)) ++now;  // equal timestamps on both sides
        const std::string where = "c=" + std::to_string(s.c) +
                                  " n=" + std::to_string(s.n) +
                                  " seed=" + std::to_string(seed) +
                                  " op " + std::to_string(op);
        const auto roll = rng.below(100);
        if (roll < 20) {
          const auto [a, b] = pick_pair();
          mirror.exchange(nullptr, a, b, now);
          ASSERT_NO_FATAL_FAILURE(mirror.expect_matches(a, where));
          ASSERT_NO_FATAL_FAILURE(mirror.expect_matches(b, where));
        } else if (roll < 40) {
          const auto [a, b] = pick_pair();
          mirror.exchange(&buffers, a, b, now);
          ASSERT_NO_FATAL_FAILURE(mirror.expect_matches(a, where));
          ASSERT_NO_FATAL_FAILURE(mirror.expect_matches(b, where));
        } else if (roll < 60) {
          const auto [a, b] = pick_pair();
          const bool a_sends = rng.chance(0.5);
          const bool b_sends = rng.chance(0.5);
          mirror.exchange_partial(buffers, a, b, now, a_sends, b_sends);
          ASSERT_NO_FATAL_FAILURE(mirror.expect_matches(a, where));
          ASSERT_NO_FATAL_FAILURE(mirror.expect_matches(b, where));
        } else if (roll < 70) {
          // Each endpoint's id in the other's slot, and one shared id at
          // different timestamps, before a full exchange.
          const auto [a, b] = pick_pair();
          mirror.insert(a, planted(b));
          mirror.insert(b, planted(a));
          const NodeId shared = pick();
          if (shared != a && shared != b) {
            mirror.insert(a, CacheEntry{shared, now});
            mirror.insert(b, CacheEntry{shared, now > 0 ? now - 1 : now});
          }
          mirror.exchange(rng.chance(0.5) ? &buffers : nullptr, a, b, now);
          ASSERT_NO_FATAL_FAILURE(mirror.expect_matches(a, where));
          ASSERT_NO_FATAL_FAILURE(mirror.expect_matches(b, where));
        } else if (roll < 92) {
          const NodeId u = pick();
          const auto id =
              static_cast<std::uint32_t>(rng.below(mirror.size() + 8));
          mirror.insert(u, planted(NodeId(id)));
          ASSERT_NO_FATAL_FAILURE(mirror.expect_matches(u, where));
        } else if (joins < kMaxJoins) {
          ++joins;
          const NodeId contact = pick();
          mirror.add_node(contact, now);
          ASSERT_NO_FATAL_FAILURE(mirror.expect_matches(contact, where));
          ASSERT_NO_FATAL_FAILURE(
              mirror.expect_matches(NodeId(mirror.size() - 1), where));
        }
        if (op % 100 == 99) {
          ASSERT_NO_FATAL_FAILURE(mirror.expect_all_match(where));
        }
      }
    }
  }
}

// NewscastCache::merge, the live hosts' merge, against the naive
// reference on any input the wire can carry: received views in any
// order, duplicate ids within one view, ids either side of the dedup cap
// and at the top of the id space, `self` inside `received`, invalid ids
// ({invalid, 0} included, which packs to the kernel's run-end key), empty
// views and an invalid sender descriptor, at c in {1, 2, 30, 64}.
TEST(NewscastCache, MergeMatchesNaiveMergeOnAnyInput) {
  constexpr std::uint32_t kCap = NewscastCache::kMaxDedupIds;
  for (const std::size_t c : {1u, 2u, 30u, 64u}) {
    Rng rng(900 + c);
    const auto ids = static_cast<std::uint32_t>(4 * c);
    for (int trial = 0; trial < 20; ++trial) {
      const NodeId self(static_cast<std::uint32_t>(rng.below(ids)));
      const auto draw_id = [&]() -> NodeId {
        switch (rng.below(12)) {
          case 0: return self;
          case 1: return NodeId::invalid();
          case 2:
            return NodeId(kCap - 1 + static_cast<std::uint32_t>(rng.below(3)));
          case 3:
            return NodeId(0xfffffffeu -
                          static_cast<std::uint32_t>(rng.below(2)));
          default: return NodeId(static_cast<std::uint32_t>(rng.below(ids)));
        }
      };
      NewscastCache cache(c);
      std::vector<CacheEntry> reference;
      std::uint64_t now = 3;
      for (int op = 0; op < 60; ++op) {
        now += rng.below(2);  // equal timestamps across merges
        std::vector<CacheEntry> received(rng.below(2 * c + 3));
        for (CacheEntry& e : received) e = {draw_id(), rng.below(now + 1)};
        if (rng.chance(0.5)) {
          std::stable_sort(received.begin(), received.end(), fresher);
        } else {
          rng.shuffle(std::span<CacheEntry>(received));
        }
        const CacheEntry fresh = rng.chance(0.2)
                                     ? CacheEntry{NodeId::invalid(), 0}
                                     : CacheEntry{draw_id(), now};
        const NodeId merge_self = rng.chance(0.1) ? NodeId::invalid() : self;
        reference = naive_merge(reference, received, fresh, merge_self, c);
        cache.merge(received, fresh, merge_self);
        const auto got = cache.entries();
        ASSERT_TRUE(std::equal(got.begin(), got.end(), reference.begin(),
                               reference.end()))
            << "c=" << c << " trial " << trial << " op " << op << ": "
            << got.size() << " entries, reference " << reference.size();
      }
    }
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
