#include "membership/newscast.hpp"

#include <algorithm>
#include <array>
#include <deque>

#include "common/require.hpp"
#include "membership/bootstrap.hpp"

namespace gossip::membership {

bool NewscastNetwork::ConstCacheView::contains(NodeId id) const {
  const auto es = entries();
  return std::any_of(es.begin(), es.end(),
                     [id](const CacheEntry& e) { return e.id == id; });
}

NodeId NewscastNetwork::ConstCacheView::sample(Rng& rng) const {
  const auto es = entries();
  if (es.empty()) return NodeId::invalid();
  return es[rng.below(es.size())].id;
}

void NewscastNetwork::CacheView::insert(CacheEntry entry) {
  GOSSIP_REQUIRE(entry.id.is_valid(), "cannot cache an invalid node id");
  mutable_net_->merge_into(mutable_net_->buffers_, node_, {}, entry,
                           NodeId::invalid());
}

NewscastNetwork::NewscastNetwork(std::size_t cache_size)
    : cache_size_(cache_size) {
  GOSSIP_REQUIRE(cache_size >= 1, "newscast needs cache size >= 1");
}

std::span<const CacheEntry> NewscastNetwork::view(NodeId id) const {
  GOSSIP_REQUIRE(id.is_valid() && id.value() < sizes_.size(),
                 "cache() id out of range");
  return {pool_.data() + static_cast<std::size_t>(id.value()) * cache_size_,
          sizes_[id.value()]};
}

NewscastNetwork::ConstCacheView NewscastNetwork::cache(NodeId id) const {
  GOSSIP_REQUIRE(id.is_valid() && id.value() < sizes_.size(),
                 "cache() id out of range");
  return ConstCacheView(this, id.value());
}

NewscastNetwork::CacheView NewscastNetwork::cache(NodeId id) {
  GOSSIP_REQUIRE(id.is_valid() && id.value() < sizes_.size(),
                 "cache() id out of range");
  return CacheView(this, id.value());
}

std::size_t NewscastNetwork::merge_union(
    MergeBuffers& buffers, std::span<const CacheEntry> first,
    std::span<const CacheEntry> second,
    std::span<const CacheEntry> fresh) const {
  if (buffers.seen.size() < sizes_.size()) {
    buffers.seen.resize(sizes_.size(), 0);
  }
  return membership::merge_union(buffers, first, second, fresh,
                                 cache_size_ + 1);
}

void NewscastNetwork::keep_union(const MergeBuffers& buffers, std::size_t len,
                                 std::uint32_t node, NodeId self) {
  sizes_[node] = membership::keep_union(
      buffers, len, self,
      pool_.data() + static_cast<std::size_t>(node) * cache_size_,
      cache_size_);
}

void NewscastNetwork::merge_into(MergeBuffers& buffers, std::uint32_t node,
                                 std::span<const CacheEntry> received,
                                 CacheEntry sender_fresh, NodeId self) {
  const std::size_t len =
      merge_union(buffers, view(NodeId(node)), received, {&sender_fresh, 1});
  keep_union(buffers, len, node, self);
}

void NewscastNetwork::grow_one(NodeId id) {
  GOSSIP_REQUIRE(id.value() == sizes_.size(),
                 "newscast nodes must be added in id order");
  pool_.resize(pool_.size() + cache_size_);
  sizes_.push_back(0);
}

void NewscastNetwork::bootstrap_random(std::uint32_t n, std::uint64_t now,
                                       Rng& rng,
                                       const overlay::ParallelFor* par) {
  GOSSIP_REQUIRE(n >= 2, "newscast bootstrap needs at least two nodes");
  const std::size_t fill = std::min<std::size_t>(cache_size_, n - 1);
  pool_.assign(static_cast<std::size_t>(n) * cache_size_, CacheEntry{});
  sizes_.assign(n, static_cast<std::uint32_t>(fill));
  const auto slot = [&](std::uint32_t u) {
    return std::span<CacheEntry>(
        pool_.data() + static_cast<std::size_t>(u) * cache_size_, fill);
  };
  // Pass 1: every RNG draw, in id order. Pinned by
  // NewscastNetwork.BootstrapMatchesMergeReference.
  for (std::uint32_t u = 0; u < n; ++u) draw_bootstrap(rng, n, slot(u));
  // Pass 2: each node settles its own slot, so fixed id chunks give the
  // same views on any schedule.
  constexpr std::uint32_t kChunk = 1024;  // nodes per job
  const std::size_t chunks = (std::size_t{n} + kChunk - 1) / kChunk;
  const auto settle = [&](std::size_t c) {
    const auto lo = static_cast<std::uint32_t>(c * kChunk);
    const std::uint32_t hi = std::min<std::uint32_t>(n, lo + kChunk);
    for (std::uint32_t u = lo; u < hi; ++u) {
      settle_bootstrap(u, n, now, slot(u));
    }
  };
  if (par != nullptr) {
    (*par)(chunks, settle);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) settle(c);
  }
}

void NewscastNetwork::add_node(NodeId id, NodeId contact,
                               std::uint64_t now) {
  GOSSIP_REQUIRE(contact.is_valid() && contact.value() < sizes_.size(),
                 "join contact out of range");
  grow_one(id);
  // The contact's view is read after grow_one, whose pool growth may
  // move it, and the merge reads it before writing the newcomer's slot.
  merge_into(buffers_, id.value(), view(contact), CacheEntry{contact, now},
             id);
  // The contact learns about the newcomer in return (it served the join).
  merge_into(buffers_, contact.value(), {}, CacheEntry{id, now},
             NodeId::invalid());
}

void NewscastNetwork::reserve_joins(std::size_t extra) {
  pool_.reserve(pool_.size() + extra * cache_size_);
  sizes_.reserve(sizes_.size() + extra);
  buffers_.seen.reserve(sizes_.size() + extra);
}

void NewscastNetwork::exchange(NodeId a, NodeId b, std::uint64_t now) {
  exchange(buffers_, a, b, now);
}

void NewscastNetwork::exchange(MergeBuffers& buffers, NodeId a, NodeId b,
                               std::uint64_t now) {
  GOSSIP_REQUIRE(a != b, "newscast exchange with self");
  GOSSIP_REQUIRE(a.is_valid() && a.value() < sizes_.size() &&
                     b.is_valid() && b.value() < sizes_.size(),
                 "exchange() id out of range");
  // Both directions of the push–pull merge the same union: both slots
  // and both fresh self-descriptors (each side's own descriptor is the
  // one id its merge drops). So one union serves both sides, and each
  // keeps it minus its own id; the union is built before either slot is
  // written, so both sides merge the pre-exchange views.
  const CacheEntry lo{std::min(a, b), now};
  const CacheEntry hi{std::max(a, b), now};
  const std::array<CacheEntry, 2> fresh{lo, hi};
  const std::size_t len = merge_union(buffers, view(a), view(b), fresh);
  keep_union(buffers, len, a.value(), a);
  keep_union(buffers, len, b.value(), b);
}

void NewscastNetwork::exchange_partial(MergeBuffers& buffers, NodeId a,
                                       NodeId b, std::uint64_t now,
                                       bool a_sends_cache,
                                       bool b_sends_cache) {
  GOSSIP_REQUIRE(a != b, "newscast exchange with self");
  GOSSIP_REQUIRE(a.is_valid() && a.value() < sizes_.size() &&
                     b.is_valid() && b.value() < sizes_.size(),
                 "exchange() id out of range");
  if (a_sends_cache && b_sends_cache) {
    exchange(buffers, a, b, now);
    return;
  }
  // At most one side sends its cache. The side that receives it merges
  // first, while the sender's slot still holds its pre-exchange view;
  // the other merge receives no view, so its order does not matter.
  if (b_sends_cache) {
    merge_into(buffers, a.value(), view(b), CacheEntry{b, now}, a);
    merge_into(buffers, b.value(), {}, CacheEntry{a, now}, b);
  } else {
    merge_into(buffers, b.value(),
               a_sends_cache ? view(a) : std::span<const CacheEntry>{},
               CacheEntry{a, now}, b);
    merge_into(buffers, a.value(), {}, CacheEntry{b, now}, a);
  }
}

void NewscastNetwork::run_cycle(const overlay::Population& population,
                                std::uint64_t now, Rng& rng,
                                const std::vector<char>* polluter) {
  const auto& live = population.live();
  order_.assign(live.begin(), live.end());
  rng.shuffle(order_);
  const std::uint32_t total = population.total();

  // The pool at N=10⁴⁺ no longer fits any cache level, so each exchange
  // stalls on two random ~c·8B slots. The loop therefore runs one
  // exchange *behind* the sampling: slot prefetches issue as soon as a
  // pair is known and resolve while the previous pair's merges compute.
  // Merge order — and thus every golden value — is unchanged: the only
  // reordering is sampling initiator i before applying exchange i-1,
  // which is observationally identical unless exchange i-1 touches
  // initiator i's own cache; that rare overlap flushes eagerly below.
  // The shuffled order also names each initiator in advance, so the slot
  // and view size of the one kAhead places on are prefetched: sampling
  // its peer then reads cached lines instead of two misses in a row.
  constexpr std::size_t kAhead = 8;
  NodeId pending_a = NodeId::invalid();
  NodeId pending_b = NodeId::invalid();
  const auto flush_pending = [&] {
    if (pending_a.is_valid()) {
      const bool pollute_a =
          polluter != nullptr && (*polluter)[pending_a.value()] != 0;
      const bool pollute_b =
          polluter != nullptr && (*polluter)[pending_b.value()] != 0;
      if (pollute_a || pollute_b) {
        exchange_partial(buffers_, pending_a, pending_b, now, !pollute_a,
                         !pollute_b);
      } else {
        exchange(buffers_, pending_a, pending_b, now);
      }
      pending_a = NodeId::invalid();
    }
  };

  for (std::size_t k = 0; k < order_.size(); ++k) {
    const NodeId initiator = order_[k];
    if (k + kAhead < order_.size()) {
      const NodeId ahead = order_[k + kAhead];
      __builtin_prefetch(&sizes_[ahead.value()], /*rw=*/0, /*locality=*/1);
      prefetch_slot(ahead);
    }
    // A node killed earlier in this same cycle no longer initiates.
    if (!population.alive_unchecked(initiator)) continue;
    if (initiator == pending_a || initiator == pending_b) {
      flush_pending();  // its view must reflect the pending merge
    }
    const NodeId peer = sample_view(initiator, rng);
    if (!peer.is_valid()) continue;
    if (peer.value() >= total || !population.alive_unchecked(peer)) {
      continue;  // timeout: crashed peer never answers (§4.2)
    }
    prefetch_slots(initiator, peer);
    flush_pending();
    pending_a = initiator;
    pending_b = peer;
  }
  flush_pending();
}

bool NewscastNetwork::live_view_connected(
    const overlay::Population& population) const {
  const auto& live = population.live();
  if (live.size() <= 1) return true;
  // BFS over live nodes following cache links in both directions.
  std::vector<std::vector<NodeId>> adj(population.total());
  for (NodeId u : live) {
    for (const CacheEntry& e : view(u)) {
      if (e.id.value() < population.total() && population.alive(e.id)) {
        adj[u.value()].push_back(e.id);
        adj[e.id.value()].push_back(u);
      }
    }
  }
  std::vector<char> seen(population.total(), 0);
  std::deque<NodeId> frontier{live.front()};
  seen[live.front().value()] = 1;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (NodeId v : adj[u.value()]) {
      if (!seen[v.value()]) {
        seen[v.value()] = 1;
        ++reached;
        frontier.push_back(v);
      }
    }
  }
  return reached == live.size();
}

}  // namespace gossip::membership
