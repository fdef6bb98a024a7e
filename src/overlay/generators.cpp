#include "overlay/generators.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace gossip::overlay {

namespace {

/// Removes the first occurrence of `value` from `list` (swap-pop).
void remove_neighbor(std::vector<NodeId>& list, NodeId value) {
  auto it = std::find(list.begin(), list.end(), value);
  GOSSIP_REQUIRE(it != list.end(), "edge bookkeeping out of sync");
  *it = list.back();
  list.pop_back();
}

bool contains(const std::vector<NodeId>& list, NodeId value) {
  return std::find(list.begin(), list.end(), value) != list.end();
}

}  // namespace

Graph complete_graph(std::uint32_t n) {
  GOSSIP_REQUIRE(n >= 2, "complete graph needs at least two nodes");
  std::vector<std::vector<NodeId>> adj(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    adj[u].reserve(n - 1);
    for (std::uint32_t v = 0; v < n; ++v) {
      if (v != u) adj[u].emplace_back(v);
    }
  }
  return Graph::from_adjacency(adj, /*directed=*/false);
}

Graph random_k_out(std::uint32_t n, std::uint32_t k, Rng& rng) {
  GOSSIP_REQUIRE(k >= 1 && k < n, "need 1 <= k < n");
  std::vector<std::vector<NodeId>> adj(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    adj[u].reserve(k);
    // Sample k distinct values from [0, n-1) and shift past `u` to skip
    // the self-loop without rejection.
    for (std::uint64_t raw : rng.sample_distinct(n - 1, k)) {
      const auto v = static_cast<std::uint32_t>(raw >= u ? raw + 1 : raw);
      adj[u].emplace_back(v);
    }
  }
  return Graph::from_adjacency(adj, /*directed=*/true);
}

Graph ring_lattice(std::uint32_t n, std::uint32_t k) {
  GOSSIP_REQUIRE(n >= 3, "ring lattice needs at least three nodes");
  GOSSIP_REQUIRE(k >= 2 && k % 2 == 0 && k < n,
                 "ring lattice needs even k with 2 <= k < n");
  std::vector<std::vector<NodeId>> adj(n);
  for (auto& list : adj) list.reserve(k);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t j = 1; j <= k / 2; ++j) {
      const std::uint32_t v = (u + j) % n;
      adj[u].emplace_back(v);
      adj[v].emplace_back(u);
    }
  }
  return Graph::from_adjacency(adj, /*directed=*/false);
}

Graph watts_strogatz(std::uint32_t n, std::uint32_t k, double beta,
                     Rng& rng) {
  GOSSIP_REQUIRE(beta >= 0.0 && beta <= 1.0, "beta must be in [0,1]");
  GOSSIP_REQUIRE(n >= 3, "Watts-Strogatz needs at least three nodes");
  GOSSIP_REQUIRE(k >= 2 && k % 2 == 0 && k < n,
                 "Watts-Strogatz needs even k with 2 <= k < n");
  std::vector<std::vector<NodeId>> adj(n);
  for (auto& list : adj) list.reserve(k + 4);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t j = 1; j <= k / 2; ++j) {
      const std::uint32_t v = (u + j) % n;
      adj[u].emplace_back(v);
      adj[v].emplace_back(u);
    }
  }
  // Rewire the far endpoint of each lattice edge with probability beta,
  // scanning ring-distance rounds as in the original model.
  constexpr int kMaxRetries = 64;
  for (std::uint32_t j = 1; j <= k / 2; ++j) {
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!rng.chance(beta)) continue;
      const NodeId self(u);
      const NodeId old_target((u + j) % n);
      // The edge may already have been rewired away from `u` by an earlier
      // round acting on the other endpoint — it cannot: rounds only rewire
      // edges they own ((u, u+j) is owned by u at round j). Still guard.
      if (!contains(adj[u], old_target)) continue;
      NodeId fresh = NodeId::invalid();
      for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
        const NodeId candidate(
            static_cast<std::uint32_t>(rng.below(n)));
        if (candidate == self || candidate == old_target) continue;
        if (contains(adj[u], candidate)) continue;
        fresh = candidate;
        break;
      }
      if (!fresh.is_valid()) continue;  // dense neighborhood; keep edge
      remove_neighbor(adj[u], old_target);
      remove_neighbor(adj[old_target.value()], self);
      adj[u].push_back(fresh);
      adj[fresh.value()].push_back(self);
    }
  }
  return Graph::from_adjacency(adj, /*directed=*/false);
}

Graph barabasi_albert(std::uint32_t n, std::uint32_t m, Rng& rng) {
  GOSSIP_REQUIRE(m >= 1, "Barabasi-Albert needs m >= 1");
  GOSSIP_REQUIRE(n > m + 1, "Barabasi-Albert needs n > m+1 nodes");
  std::vector<std::vector<NodeId>> adj(n);
  // `stubs` holds one entry per edge endpoint, so uniform sampling from it
  // is sampling proportional to degree.
  std::vector<NodeId> stubs;
  stubs.reserve(2ull * m * n);
  // Seed clique on m+1 nodes.
  for (std::uint32_t u = 0; u <= m; ++u) {
    for (std::uint32_t v = u + 1; v <= m; ++v) {
      adj[u].emplace_back(v);
      adj[v].emplace_back(u);
      stubs.emplace_back(u);
      stubs.emplace_back(v);
    }
  }
  std::vector<NodeId> chosen;
  chosen.reserve(m);
  for (std::uint32_t u = m + 1; u < n; ++u) {
    chosen.clear();
    while (chosen.size() < m) {
      const NodeId candidate = stubs[rng.below(stubs.size())];
      if (contains(chosen, candidate)) continue;
      chosen.push_back(candidate);
    }
    for (NodeId v : chosen) {
      adj[u].push_back(v);
      adj[v.value()].emplace_back(u);
      stubs.emplace_back(u);
      stubs.push_back(v);
    }
  }
  return Graph::from_adjacency(adj, /*directed=*/false);
}

}  // namespace gossip::overlay
