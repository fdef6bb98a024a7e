// Tests for src/overlay: CSR graph mechanics, every §4.4 topology
// generator, structural analysis, live population and peer samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "experiment/parallel_runner.hpp"
#include "overlay/analysis.hpp"
#include "overlay/generators.hpp"
#include "overlay/graph.hpp"
#include "overlay/peer_sampler.hpp"
#include "overlay/population.hpp"

namespace gossip::overlay {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, FromAdjacencyRoundTrip) {
  std::vector<std::vector<NodeId>> adj{
      {NodeId(1), NodeId(2)}, {NodeId(0)}, {NodeId(0)}};
  const Graph g = Graph::from_adjacency(adj, /*directed=*/false);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(NodeId(0)), 2u);
  EXPECT_EQ(g.degree(NodeId(1)), 1u);
  EXPECT_TRUE(g.has_edge(NodeId(0), NodeId(1)));
  EXPECT_FALSE(g.has_edge(NodeId(1), NodeId(2)));
  g.validate();
}

TEST(Graph, DirectedEdgeCountNotHalved) {
  std::vector<std::vector<NodeId>> adj{{NodeId(1)}, {}};
  const Graph g = Graph::from_adjacency(adj, /*directed=*/true);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.directed());
}

TEST(Graph, NeighborsOutOfRangeThrows) {
  const Graph g = complete_graph(4);
  EXPECT_THROW((void)g.neighbors(NodeId(4)), require_error);
  EXPECT_THROW((void)g.neighbors(NodeId::invalid()), require_error);
}

TEST(Graph, ValidateCatchesAsymmetry) {
  std::vector<std::vector<NodeId>> adj{{NodeId(1)}, {}};
  const Graph g = Graph::from_adjacency(adj, /*directed=*/false);
  EXPECT_THROW(g.validate(), require_error);
}

TEST(Graph, ValidateCatchesSelfLoop) {
  std::vector<std::vector<NodeId>> adj{{NodeId(0)}};
  const Graph g = Graph::from_adjacency(adj, /*directed=*/true);
  EXPECT_THROW(g.validate(), require_error);
}

TEST(CompleteGraph, StructureAndDegrees) {
  const Graph g = complete_graph(25);
  g.validate();
  EXPECT_EQ(g.node_count(), 25u);
  EXPECT_EQ(g.edge_count(), 25u * 24 / 2);
  for (std::uint32_t u = 0; u < 25; ++u) {
    EXPECT_EQ(g.degree(NodeId(u)), 24u);
  }
  EXPECT_TRUE(is_connected(g));
}

TEST(CompleteGraph, RejectsTrivialSizes) {
  EXPECT_THROW(complete_graph(0), require_error);
  EXPECT_THROW(complete_graph(1), require_error);
}

TEST(RandomKOut, DegreeExactlyKAndDistinct) {
  Rng rng(1);
  const Graph g = random_k_out(200, 20, rng);
  g.validate();
  EXPECT_TRUE(g.directed());
  for (std::uint32_t u = 0; u < 200; ++u) {
    const auto ns = g.neighbors(NodeId(u));
    EXPECT_EQ(ns.size(), 20u);
    std::unordered_set<NodeId> distinct(ns.begin(), ns.end());
    EXPECT_EQ(distinct.size(), 20u);
    EXPECT_EQ(distinct.count(NodeId(u)), 0u);
  }
}

TEST(RandomKOut, ConnectedAtPaperDegree) {
  // A random 20-out graph on 10^3..10^4 nodes is (weakly) connected with
  // overwhelming probability; the paper's theory assumes connectivity.
  for (std::uint64_t seed : {2ull, 3ull, 4ull}) {
    Rng rng(seed);
    EXPECT_TRUE(is_connected(random_k_out(5000, 20, rng))) << seed;
  }
}

TEST(RandomKOut, DeterministicBySeed) {
  Rng a(9), b(9);
  const Graph ga = random_k_out(100, 5, a);
  const Graph gb = random_k_out(100, 5, b);
  for (std::uint32_t u = 0; u < 100; ++u) {
    const auto na = ga.neighbors(NodeId(u));
    const auto nb = gb.neighbors(NodeId(u));
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST(RandomKOut, RejectsBadK) {
  Rng rng(1);
  EXPECT_THROW(random_k_out(10, 0, rng), require_error);
  EXPECT_THROW(random_k_out(10, 10, rng), require_error);
}

TEST(RingLattice, StructureMatchesDefinition) {
  const Graph g = ring_lattice(10, 4);
  g.validate();
  EXPECT_EQ(g.edge_count(), 10u * 4 / 2);
  for (std::uint32_t u = 0; u < 10; ++u) {
    EXPECT_EQ(g.degree(NodeId(u)), 4u);
    EXPECT_TRUE(g.has_edge(NodeId(u), NodeId((u + 1) % 10)));
    EXPECT_TRUE(g.has_edge(NodeId(u), NodeId((u + 2) % 10)));
    EXPECT_FALSE(g.has_edge(NodeId(u), NodeId((u + 3) % 10)));
  }
  EXPECT_TRUE(is_connected(g));
}

TEST(RingLattice, HighClusteringLongPaths) {
  Rng rng(5);
  const Graph g = ring_lattice(1000, 20);
  // Ring lattice clustering tends to 3(k-2)/(4(k-1)) ≈ 0.71 for k=20.
  EXPECT_GT(clustering_coefficient(g, rng, 200), 0.6);
  // Mean path ~ n/(2k) = 25 hops; far beyond any small world.
  EXPECT_GT(mean_path_length(g, rng, 5), 10.0);
}

TEST(RingLattice, RejectsBadParameters) {
  EXPECT_THROW(ring_lattice(2, 2), require_error);
  EXPECT_THROW(ring_lattice(10, 3), require_error);   // odd k
  EXPECT_THROW(ring_lattice(10, 10), require_error);  // k == n
  EXPECT_THROW(ring_lattice(10, 0), require_error);
}

TEST(WattsStrogatz, BetaZeroIsRingLattice) {
  Rng rng(7);
  const Graph ws = watts_strogatz(50, 6, 0.0, rng);
  const Graph ring = ring_lattice(50, 6);
  for (std::uint32_t u = 0; u < 50; ++u) {
    auto a = ws.neighbors(NodeId(u));
    auto b = ring.neighbors(NodeId(u));
    std::vector<NodeId> sa(a.begin(), a.end()), sb(b.begin(), b.end());
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    EXPECT_EQ(sa, sb);
  }
}

TEST(WattsStrogatz, PreservesEdgeCountAndStaysSimple) {
  for (double beta : {0.25, 0.5, 0.75, 1.0}) {
    Rng rng(11);
    const Graph g = watts_strogatz(500, 10, beta, rng);
    g.validate();  // no self loops, no duplicates, symmetric
    EXPECT_EQ(g.edge_count(), 500u * 10 / 2) << beta;
  }
}

TEST(WattsStrogatz, RewiringLowersClusteringAndPathLength) {
  Rng r1(13), r2(13), r3(14), r4(14);
  const Graph ordered = watts_strogatz(800, 10, 0.0, r1);
  const Graph small_world = watts_strogatz(800, 10, 0.25, r2);
  const double c0 = clustering_coefficient(ordered, r3, 300);
  const double c1 = clustering_coefficient(small_world, r3, 300);
  EXPECT_LT(c1, c0);
  const double l0 = mean_path_length(ordered, r4, 4);
  const double l1 = mean_path_length(small_world, r4, 4);
  EXPECT_LT(l1, 0.5 * l0);  // the small-world collapse
}

TEST(WattsStrogatz, BetaOneApproachesRandomClustering) {
  Rng rng(17), rng2(18);
  const Graph g = watts_strogatz(2000, 10, 1.0, rng);
  // Random graph clustering ≈ k/n = 0.005; allow generous headroom.
  EXPECT_LT(clustering_coefficient(g, rng2, 500), 0.05);
}

TEST(WattsStrogatz, StaysConnectedAtPaperScaleParameters) {
  for (double beta : {0.0, 0.25, 0.5, 0.75}) {
    Rng rng(19);
    EXPECT_TRUE(is_connected(watts_strogatz(2000, 20, beta, rng))) << beta;
  }
}

TEST(WattsStrogatz, RejectsBadBeta) {
  Rng rng(1);
  EXPECT_THROW(watts_strogatz(10, 4, -0.1, rng), require_error);
  EXPECT_THROW(watts_strogatz(10, 4, 1.1, rng), require_error);
}

TEST(BarabasiAlbert, NodeAndEdgeCounts) {
  Rng rng(23);
  const Graph g = barabasi_albert(1000, 10, rng);
  g.validate();
  EXPECT_EQ(g.node_count(), 1000u);
  // Seed clique: C(11,2) = 55 edges; each of the 989 arrivals adds 10.
  EXPECT_EQ(g.edge_count(), 55u + 989u * 10);
  // Mean degree ≈ 2m = 20, the paper's ⟨k⟩.
  EXPECT_NEAR(degree_summary(g).mean, 2.0 * g.edge_count() / 1000.0, 1e-9);
  EXPECT_TRUE(is_connected(g));
}

TEST(BarabasiAlbert, MinimumDegreeIsM) {
  Rng rng(29);
  const Graph g = barabasi_albert(500, 5, rng);
  EXPECT_GE(degree_summary(g).min, 5.0);
}

TEST(BarabasiAlbert, HasHeavyTailVersusRandom) {
  Rng rng(31);
  const Graph ba = barabasi_albert(3000, 10, rng);
  const Graph rnd = random_k_out(3000, 20, rng);
  // Preferential attachment grows hubs; a random 20-out graph's max
  // total degree stays close to 40.
  EXPECT_GT(max_degree(ba), 3u * max_degree(rnd) / 2);
  EXPECT_GT(max_degree(ba), 100u);
}

TEST(BarabasiAlbert, RejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW(barabasi_albert(5, 0, rng), require_error);
  EXPECT_THROW(barabasi_albert(11, 10, rng), require_error);
}

TEST(Analysis, BfsDistancesOnPath) {
  // 0 - 1 - 2 - 3 path.
  std::vector<std::vector<NodeId>> adj{
      {NodeId(1)}, {NodeId(0), NodeId(2)}, {NodeId(1), NodeId(3)},
      {NodeId(2)}};
  const Graph g = Graph::from_adjacency(adj, false);
  const auto dist = bfs_distances(g, NodeId(0));
  EXPECT_EQ(dist, (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST(Analysis, BfsTreatsDirectedAsSymmetric) {
  // Directed chain 0 -> 1 -> 2; node 0 must still reach both and vice
  // versa for weak connectivity.
  std::vector<std::vector<NodeId>> adj{{NodeId(1)}, {NodeId(2)}, {}};
  const Graph g = Graph::from_adjacency(adj, true);
  EXPECT_TRUE(is_connected(g));
  const auto dist = bfs_distances(g, NodeId(2));
  EXPECT_EQ(dist[0], 2);
}

TEST(Analysis, DisconnectedDetected) {
  std::vector<std::vector<NodeId>> adj{{NodeId(1)}, {NodeId(0)}, {}};
  const Graph g = Graph::from_adjacency(adj, false);
  EXPECT_FALSE(is_connected(g));
}

TEST(Analysis, CompleteGraphClusteringIsOne) {
  Rng rng(37);
  EXPECT_DOUBLE_EQ(clustering_coefficient(complete_graph(20), rng, 100),
                   1.0);
}

TEST(Analysis, CompleteGraphPathLengthIsOne) {
  Rng rng(41);
  EXPECT_DOUBLE_EQ(mean_path_length(complete_graph(20), rng, 3), 1.0);
}

TEST(Population, InitialState) {
  const Population p(5);
  EXPECT_EQ(p.total(), 5u);
  EXPECT_EQ(p.live_count(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_TRUE(p.alive(NodeId(i)));
}

TEST(Population, KillAndJoin) {
  Population p(3);
  p.kill(NodeId(1));
  EXPECT_EQ(p.live_count(), 2u);
  EXPECT_FALSE(p.alive(NodeId(1)));
  EXPECT_TRUE(p.alive(NodeId(0)));
  const NodeId fresh = p.add();
  EXPECT_EQ(fresh, NodeId(3));  // ids never reused
  EXPECT_EQ(p.total(), 4u);
  EXPECT_EQ(p.live_count(), 3u);
  EXPECT_TRUE(p.alive(fresh));
}

TEST(Population, DoubleKillThrows) {
  Population p(2);
  p.kill(NodeId(0));
  EXPECT_THROW(p.kill(NodeId(0)), require_error);
  EXPECT_THROW(p.kill(NodeId(5)), require_error);
}

TEST(Population, SampleLiveNeverReturnsDead) {
  Population p(10);
  Rng rng(43);
  for (std::uint32_t i = 0; i < 10; i += 2) p.kill(NodeId(i));
  for (int t = 0; t < 1000; ++t) {
    EXPECT_TRUE(p.alive(p.sample_live(rng)));
  }
}

TEST(Population, SampleLiveOtherExcludesSelf) {
  Population p(3);
  Rng rng(47);
  for (int t = 0; t < 500; ++t) {
    EXPECT_NE(p.sample_live_other(NodeId(1), rng), NodeId(1));
  }
  p.kill(NodeId(0));
  p.kill(NodeId(2));
  EXPECT_EQ(p.sample_live_other(NodeId(1), rng), NodeId::invalid());
}

TEST(Population, SampleLiveOtherFromDeadCaller) {
  // A dead node's in-flight exchange may still sample (the timeout model
  // handles the rest); the sampler just never hands back the caller.
  Population p(4);
  Rng rng(53);
  p.kill(NodeId(2));
  for (int t = 0; t < 200; ++t) {
    const NodeId pick = p.sample_live_other(NodeId(2), rng);
    EXPECT_TRUE(p.alive(pick));
  }
}

TEST(Population, SampleLiveOtherOneLiveNodeCannotSpin) {
  // Regression: with exactly one live node the rejection loop used to be
  // the only guard; the bounded budget plus the early return make the
  // 1-live cases terminate deterministically in O(1).
  Population p(6);
  Rng rng(73);
  for (std::uint32_t i = 1; i < 6; ++i) p.kill(NodeId(i));
  ASSERT_EQ(p.live_count(), 1u);
  // The single live node asking for a peer: nobody else exists.
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(p.sample_live_other(NodeId(0), rng), NodeId::invalid());
  }
  // A dead caller still gets the lone live node, never itself.
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(p.sample_live_other(NodeId(4), rng), NodeId(0));
  }
  // And the Complete overlay built on top stays invalid-not-hung.
  CompletePeerSampler sampler(p);
  EXPECT_EQ(sampler.sample(NodeId(0), rng), NodeId::invalid());
  EXPECT_EQ(sampler.sample(NodeId(3), rng), NodeId(0));
}

TEST(Population, BatchKillsKeepLiveAscendingAndRetireSampledPositions) {
  // The intra-rep engine and the runtime executor edit their live sets
  // only through add() and the batch kills, so live() stays ascending,
  // and a sampled kill retires live()[p] for each p that
  // sample_distinct draws: one seed names the same victims on both.
  experiment::ParallelRunner pool(4);
  const ParallelFor par = [&pool](std::size_t count,
                                  const std::function<void(std::size_t)>& job) {
    pool.run(count, job);
  };
  for (const ParallelFor* exec : {static_cast<const ParallelFor*>(nullptr),
                                  &par}) {
    for (const unsigned chunks : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << "chunks=" << chunks
                                      << " pool=" << (exec != nullptr));
      Population pop(40);
      Rng rng(61);
      Rng twin(61);
      for (std::uint32_t round = 0; round < 8; ++round) {
        const std::vector<NodeId> before = pop.live();
        const std::uint32_t k = 1 + round % 4;
        std::vector<NodeId> victims;
        for (const std::uint64_t p : twin.sample_distinct(before.size(), k)) {
          victims.push_back(before[p]);
        }
        pop.kill_uniform_batch(k, rng, chunks, exec);
        std::vector<NodeId> expected;
        for (const NodeId id : before) {
          if (std::find(victims.begin(), victims.end(), id) ==
              victims.end()) {
            expected.push_back(id);
          }
        }
        EXPECT_EQ(pop.live(), expected);

        const std::uint32_t lo = 4 * round;
        std::uint32_t in_range = 0;
        for (std::uint32_t id = lo; id < lo + 6; ++id) {
          in_range += pop.alive(NodeId(id)) ? 1 : 0;
        }
        EXPECT_EQ(pop.kill_range_batch(lo, lo + 6, 3, chunks, exec),
                  std::min(in_range, 3u));
        (void)pop.add();
        (void)pop.add();
        EXPECT_TRUE(std::is_sorted(pop.live().begin(), pop.live().end()));
      }
    }
  }
}

TEST(Population, EmptyPopulationSamplingThrows) {
  Population p(1);
  Rng rng(59);
  p.kill(NodeId(0));
  EXPECT_THROW(p.sample_live(rng), require_error);
}

TEST(PeerSampler, GraphSamplerUniformOverNeighbors) {
  Rng rng(61);
  const Graph g = ring_lattice(10, 4);
  GraphPeerSampler sampler(g);
  std::vector<int> counts(10, 0);
  constexpr int kTrials = 40000;
  for (int t = 0; t < kTrials; ++t) {
    const NodeId pick = sampler.sample(NodeId(0), rng);
    ++counts[pick.value()];
  }
  // Neighbors of 0 are {1, 2, 8, 9}; each should get ~25%.
  for (std::uint32_t v : {1u, 2u, 8u, 9u}) {
    EXPECT_NEAR(counts[v], kTrials / 4, 600) << v;
  }
  EXPECT_EQ(counts[5], 0);
}

TEST(PeerSampler, GraphSamplerNoNeighbors) {
  std::vector<std::vector<NodeId>> adj{{}};
  const Graph g = Graph::from_adjacency(adj, true);
  GraphPeerSampler sampler(g);
  Rng rng(67);
  EXPECT_EQ(sampler.sample(NodeId(0), rng), NodeId::invalid());
}

TEST(PeerSampler, CompleteSamplerTracksLiveSet) {
  Population p(5);
  CompletePeerSampler sampler(p);
  Rng rng(71);
  p.kill(NodeId(3));
  for (int t = 0; t < 500; ++t) {
    const NodeId pick = sampler.sample(NodeId(0), rng);
    EXPECT_NE(pick, NodeId(0));
    EXPECT_NE(pick, NodeId(3));
  }
}

// ---- Parameterized sweep: every generator yields a connected overlay of
// the expected size over a range of (n, seed) combinations. -------------

struct TopologyCase {
  const char* name;
  std::uint32_t n;
  std::uint64_t seed;
};

class AllTopologies : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(AllTopologies, ConnectedAndSized) {
  const auto& tc = GetParam();
  Rng rng(tc.seed);
  const std::uint32_t k = 20;
  std::vector<Graph> graphs;
  graphs.push_back(random_k_out(tc.n, k, rng));
  graphs.push_back(watts_strogatz(tc.n, k, 0.25, rng));
  graphs.push_back(watts_strogatz(tc.n, k, 0.75, rng));
  graphs.push_back(barabasi_albert(tc.n, k / 2, rng));
  graphs.push_back(ring_lattice(tc.n, k));
  for (const auto& g : graphs) {
    EXPECT_EQ(g.node_count(), tc.n);
    EXPECT_TRUE(is_connected(g));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, AllTopologies,
    ::testing::Values(TopologyCase{"tiny", 100, 1},
                      TopologyCase{"small", 500, 2},
                      TopologyCase{"mid", 2000, 3},
                      TopologyCase{"larger", 8000, 4}),
    [](const ::testing::TestParamInfo<TopologyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace gossip::overlay
