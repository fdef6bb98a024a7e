// Peer selection — the GETNEIGHBOR() of the paper's generic scheme
// (fig. 1). The aggregation protocol is written against this seam so the
// same protocol code runs over a static graph, the live complete graph,
// or the NEWSCAST dynamic view (src/membership).
//
// The samplers are deliberately *not* a virtual hierarchy: the sample()
// call happens once per node per cycle — the single hottest call site of
// every simulation — so the drivers dispatch over the concrete types once
// per cycle or round (experiment::SamplerVariant, built by make_sampler
// in experiment/sim_core for every simulator) and the RNG plus table
// lookups inline into the aggregation loop. sample() only reads, so
// concurrent callers may share one sampler (the intra-rep engine's
// parallel propose phase). Implementations may return a crashed node —
// that is the point: the caller discovers the crash through a timed-out
// exchange, exactly as in §4.2.
#pragma once

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "overlay/graph.hpp"
#include "overlay/population.hpp"

namespace gossip::overlay {

/// Uniform choice among a static graph's out-neighbors.
class GraphPeerSampler final {
public:
  /// The graph must outlive the sampler.
  explicit GraphPeerSampler(const Graph& graph) : graph_(&graph) {}

  NodeId sample(NodeId from, Rng& rng) const {
    const auto ns = graph_->neighbors(from);
    if (ns.empty()) return NodeId::invalid();
    return ns[rng.below(ns.size())];
  }

private:
  const Graph* graph_;
};

/// The paper's "Complete" topology at scale: every node knows every other
/// *current* node, so sampling is uniform over the live population
/// (never materializes O(n²) edges).
class CompletePeerSampler final {
public:
  /// The population must outlive the sampler.
  explicit CompletePeerSampler(const Population& population)
      : population_(&population) {}

  NodeId sample(NodeId from, Rng& rng) const {
    return population_->sample_live_other(from, rng);
  }

private:
  const Population* population_;
};

}  // namespace gossip::overlay
