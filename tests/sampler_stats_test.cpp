// Statistical guard for every concrete GETNEIGHBOR() implementation.
//
// The paper's convergence results (§3, Theorem 1) hold only if the peer
// sampler is *uniform* over the intended support — the static graph's
// neighbor set, the live population, or the NEWSCAST view. Both related
// lines of work the repo tracks (scalable secure aggregation, in-network
// aggregation under churn) stress that aggregation-quality claims rest on
// sampler uniformity under membership change, so this suite pins it with
// chi-square goodness-of-fit tests at fixed seeds — including the
// post-kill() live-set distribution, which is exactly what the
// devirtualized dispatch must not regress.
//
// Draw counts and the α = 0.001 critical values are sized so a correct
// sampler passes with wide margin at these seeds while a bias of a few
// percent per bin fails reliably.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "membership/newscast.hpp"
#include "overlay/generators.hpp"
#include "overlay/peer_sampler.hpp"
#include "overlay/population.hpp"

namespace gossip {
namespace {

using membership::NewscastNetwork;
using membership::NewscastPeerSampler;
using overlay::CompletePeerSampler;
using overlay::GraphPeerSampler;
using overlay::Population;

/// χ² statistic of `counts` against the uniform distribution.
double chi_square_uniform(const std::vector<std::uint64_t>& counts) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  const double expected =
      static_cast<double>(total) / static_cast<double>(counts.size());
  double stat = 0.0;
  for (std::uint64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    stat += d * d / expected;
  }
  return stat;
}

/// Upper critical value of the χ² distribution with `df` degrees of
/// freedom at α = 0.001 (Wilson–Hilferty approximation; accurate to a
/// fraction of a percent for df >= 5, plenty for a pass/fail gate).
double chi_square_critical(std::size_t df) {
  constexpr double z = 3.090232306167814;  // Φ⁻¹(0.999)
  const double k = static_cast<double>(df);
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * t * t * t;
}

// ------------------------------------------------------------- graph

TEST(SamplerStats, GraphSamplerUniformOverRingNeighbors) {
  const auto g = overlay::ring_lattice(60, 10);
  GraphPeerSampler sampler(g);
  const auto ns = g.neighbors(NodeId(7));
  ASSERT_EQ(ns.size(), 10u);

  Rng rng(0xa11ce);
  std::vector<std::uint64_t> counts(ns.size(), 0);
  constexpr std::uint64_t kDraws = 100000;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const NodeId pick = sampler.sample(NodeId(7), rng);
    auto it = std::find(ns.begin(), ns.end(), pick);
    ASSERT_NE(it, ns.end()) << "sampled a non-neighbor: " << pick;
    ++counts[static_cast<std::size_t>(it - ns.begin())];
  }
  EXPECT_LT(chi_square_uniform(counts), chi_square_critical(ns.size() - 1));
}

TEST(SamplerStats, GraphSamplerUniformOverRandomKOutNeighbors) {
  Rng build(99);
  const auto g = overlay::random_k_out(200, 16, build);
  GraphPeerSampler sampler(g);
  const auto ns = g.neighbors(NodeId(42));
  ASSERT_EQ(ns.size(), 16u);

  Rng rng(0xbee);
  std::vector<std::uint64_t> counts(ns.size(), 0);
  for (std::uint64_t i = 0; i < 160000; ++i) {
    const NodeId pick = sampler.sample(NodeId(42), rng);
    auto it = std::find(ns.begin(), ns.end(), pick);
    ASSERT_NE(it, ns.end());
    ++counts[static_cast<std::size_t>(it - ns.begin())];
  }
  EXPECT_LT(chi_square_uniform(counts), chi_square_critical(ns.size() - 1));
}

// ---------------------------------------------------------- complete

TEST(SamplerStats, CompleteSamplerUniformOverOthers) {
  Population pop(64);
  CompletePeerSampler sampler(pop);
  Rng rng(0x5eed);
  std::vector<std::uint64_t> counts(64, 0);
  constexpr std::uint64_t kDraws = 252000;  // 4000 per live bin
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const NodeId pick = sampler.sample(NodeId(0), rng);
    ASSERT_TRUE(pick.is_valid());
    ASSERT_NE(pick, NodeId(0)) << "sampler handed back the caller";
    ++counts[pick.value()];
  }
  EXPECT_EQ(counts[0], 0u);
  counts.erase(counts.begin());  // support is the 63 other nodes
  EXPECT_LT(chi_square_uniform(counts), chi_square_critical(counts.size() - 1));
}

TEST(SamplerStats, CompleteSamplerUniformAfterKills) {
  // The §4.2-relevant case: the live set changed under the sampler. Kill
  // a third of the population, then check the distribution is uniform
  // over the *remaining* live nodes and gives crashed nodes zero mass.
  Population pop(60);
  CompletePeerSampler sampler(pop);
  Rng churn(0xdead);
  for (int k = 0; k < 20; ++k) {
    NodeId victim = pop.sample_live(churn);
    if (victim == NodeId(3)) victim = pop.sample_live(churn);  // keep caller
    if (victim == NodeId(3)) continue;
    pop.kill(victim);
  }
  ASSERT_TRUE(pop.alive(NodeId(3)));

  Rng rng(0xfeed);
  std::vector<std::uint64_t> counts(pop.total(), 0);
  constexpr std::uint64_t kDraws = 200000;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const NodeId pick = sampler.sample(NodeId(3), rng);
    ASSERT_TRUE(pick.is_valid());
    ASSERT_TRUE(pop.alive(pick)) << "sampled a crashed node";
    ASSERT_NE(pick, NodeId(3));
    ++counts[pick.value()];
  }
  std::vector<std::uint64_t> live_counts;
  for (std::uint32_t u = 0; u < pop.total(); ++u) {
    if (!pop.alive(NodeId(u))) {
      EXPECT_EQ(counts[u], 0u) << "node " << u;
    } else if (u != 3) {
      live_counts.push_back(counts[u]);
    }
  }
  ASSERT_EQ(live_counts.size(), pop.live_count() - 1);
  EXPECT_LT(chi_square_uniform(live_counts),
            chi_square_critical(live_counts.size() - 1));
}

// ---------------------------------------------------------- newscast

TEST(SamplerStats, NewscastSamplerUniformOverView) {
  NewscastNetwork net(20);
  Rng build(0xcafe);
  net.bootstrap_random(200, 0, build);
  const auto entries = net.view(NodeId(11));
  ASSERT_EQ(entries.size(), 20u);

  NewscastPeerSampler sampler(net);
  Rng rng(0x9a9a);
  std::vector<std::uint64_t> counts(entries.size(), 0);
  for (std::uint64_t i = 0; i < 200000; ++i) {
    const NodeId pick = sampler.sample(NodeId(11), rng);
    std::size_t slot = entries.size();
    for (std::size_t e = 0; e < entries.size(); ++e) {
      if (entries[e].id == pick) slot = e;
    }
    ASSERT_LT(slot, entries.size()) << "sampled outside the view";
    ++counts[slot];
  }
  EXPECT_LT(chi_square_uniform(counts),
            chi_square_critical(counts.size() - 1));
}

TEST(SamplerStats, NewscastFastPathMatchesCacheViewDrawForDraw) {
  // The raw-span fast path (sample_view) must consume the identical rng
  // stream as the bounds-checked ConstCacheView::sample it replaced —
  // this is the devirtualization's bit-compatibility guard.
  NewscastNetwork net(16);
  Rng build(0x1234);
  net.bootstrap_random(100, 0, build);
  Rng a(7), b(7);
  for (std::uint32_t u = 0; u < 100; ++u) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(net.sample_view(NodeId(u), a),
                net.cache(NodeId(u)).sample(b));
    }
  }
}

// ------------------------------------------------- population live set

TEST(SamplerStats, PopulationSampleLiveUniformAfterKills) {
  // sample_live feeds the failure plans and the Complete overlay; check
  // it stays uniform over the survivors of a heavy kill wave.
  Population pop(80);
  Rng pick_victims(0x600d);
  for (int k = 0; k < 40; ++k) pop.kill(pop.sample_live(pick_victims));
  ASSERT_EQ(pop.live_count(), 40u);

  Rng rng(0x7777);
  std::vector<std::uint64_t> counts(pop.total(), 0);
  for (std::uint64_t i = 0; i < 160000; ++i) {
    const NodeId pick = pop.sample_live(rng);
    ++counts[pick.value()];
  }
  std::vector<std::uint64_t> live_counts;
  for (std::uint32_t u = 0; u < 80; ++u) {
    if (pop.alive(NodeId(u))) {
      live_counts.push_back(counts[u]);
    } else {
      EXPECT_EQ(counts[u], 0u);
    }
  }
  ASSERT_EQ(live_counts.size(), 40u);
  EXPECT_LT(chi_square_uniform(live_counts),
            chi_square_critical(live_counts.size() - 1));
}

TEST(SamplerStats, PopulationSampleLiveOtherUniformAfterKillMany) {
  // The intra-rep engine's batch path: victims retired by kill_many's
  // stable compaction must leave sample_live_other uniform too.
  Population pop(50);
  Rng churn(0xabcd);
  std::vector<NodeId> victims;
  for (std::uint64_t pos : churn.sample_distinct(pop.live_count(), 16)) {
    if (pop.live()[pos] != NodeId(9)) victims.push_back(pop.live()[pos]);
  }
  pop.kill_many(victims, 8);
  ASSERT_TRUE(pop.alive(NodeId(9)));

  Rng rng(0x1dea);
  std::vector<std::uint64_t> counts(pop.total(), 0);
  for (std::uint64_t i = 0; i < 170000; ++i) {
    const NodeId pick = pop.sample_live_other(NodeId(9), rng);
    ASSERT_TRUE(pick.is_valid());
    ASSERT_NE(pick, NodeId(9));
    ASSERT_TRUE(pop.alive(pick));
    ++counts[pick.value()];
  }
  std::vector<std::uint64_t> live_counts;
  for (std::uint32_t u = 0; u < pop.total(); ++u) {
    if (pop.alive(NodeId(u)) && u != 9) live_counts.push_back(counts[u]);
  }
  ASSERT_EQ(live_counts.size(), pop.live_count() - 1);
  EXPECT_LT(chi_square_uniform(live_counts),
            chi_square_critical(live_counts.size() - 1));
}

// A sanity check that the gate can fail: a deliberately biased count
// vector must exceed the critical value.
TEST(SamplerStats, ChiSquareRejectsObviousBias) {
  std::vector<std::uint64_t> biased(20, 5000);
  biased[0] = 6000;  // one bin 20% heavy
  biased[1] = 4000;
  EXPECT_GT(chi_square_uniform(biased), chi_square_critical(19));
}

}  // namespace
}  // namespace gossip
