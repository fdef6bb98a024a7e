#include "membership/newscast.hpp"

#include <algorithm>
#include <deque>

#include "common/require.hpp"

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
  buffers_.scratch.reserve(cache_size_);
  buffers_.incoming.reserve(cache_size_ + 1);
  buffers_.merged.reserve(cache_size_);
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

std::uint32_t NewscastNetwork::begin_merge(MergeBuffers& buffers) const {
  // Every mark array and the epoch stamp must advance together — this is
  // the single place that invariant lives. Fresh per-thread buffers (and
  // joins growing the id space) catch up lazily; new slots hold epoch 0,
  // which never equals a live stamp.
  if (buffers.mark.size() < sizes_.size()) {
    buffers.mark.resize(sizes_.size(), 0u);
  }
  if (buffers.mark2.size() < sizes_.size()) {
    buffers.mark2.resize(sizes_.size(), 0u);
  }
  ++buffers.epoch;
  if (buffers.epoch == 0) {  // stamp wrap: invalidate all stale marks
    std::fill(buffers.mark.begin(), buffers.mark.end(), 0u);
    std::fill(buffers.mark2.begin(), buffers.mark2.end(), 0u);
    buffers.epoch = 1;
  }
  return buffers.epoch;
}

void NewscastNetwork::merge_into(MergeBuffers& buffers, std::uint32_t node,
                                 std::span<const CacheEntry> received,
                                 CacheEntry sender_fresh, NodeId self,
                                 bool received_sorted) {
  // The hottest code in every newscast simulation (two calls per
  // exchange, one exchange per node per cycle). Three ingredients keep
  // it allocation-free and out of O(c²):
  //  * a 3-way merge over (slot, received, fresh descriptor) — the
  //    received span is consumed in place, never copied or re-packed;
  //  * duplicate-id suppression via an epoch-stamped marker array
  //    (mark[id] == epoch means "already kept this merge"), O(1) per
  //    candidate instead of scanning the output;
  //  * merged as caller-owned staging reused across merges.
  // The pick order reproduces NewscastCache::merge exactly: on equal
  // (timestamp, id) keys the incoming side wins over the slot, and the
  // fresh descriptor wins over received entries (the old lower_bound
  // insertion point). Golden-tested in tests/determinism_test.cpp.
  if (!received_sorted &&
      !std::is_sorted(received.begin(), received.end(), fresher)) {
    // Public callers may hand us arbitrary spans; slot views are always
    // sorted, so this copy only happens off the hot path.
    buffers.incoming.assign(received.begin(), received.end());
    std::sort(buffers.incoming.begin(), buffers.incoming.end(), fresher);
    received = buffers.incoming;
  }

  const std::uint32_t epoch = begin_merge(buffers);
  const auto mark_limit = static_cast<std::uint32_t>(buffers.mark.size());
  if (self.is_valid() && self.value() < mark_limit) {
    buffers.mark[self.value()] = epoch;  // never retain our own descriptor
  }

  CacheEntry* slot =
      pool_.data() + static_cast<std::size_t>(node) * cache_size_;
  const std::size_t current = sizes_[node];

  auto& merged = buffers.merged;
  merged.clear();
  const auto keep = [&](const CacheEntry& e) {
    if (e.id.value() >= mark_limit) {
      // Ids the network has never registered (hand-built test views);
      // fall back to scanning the staged output.
      if (e.id == self) return;
      for (const CacheEntry& k : merged) {
        if (k.id == e.id) return;
      }
      merged.push_back(e);
      return;
    }
    auto& mark = buffers.mark[e.id.value()];
    if (mark == epoch) return;  // an earlier (fresher) copy won
    mark = epoch;
    merged.push_back(e);
  };

  std::size_t i = 0, j = 0;
  bool fresh_pending = sender_fresh.id.is_valid();
  while (merged.size() < cache_size_) {
    // Head of the incoming stream: the fresh descriptor goes before any
    // received entry it doesn't strictly lose to.
    const CacheEntry* in = nullptr;
    bool in_is_fresh = false;
    if (fresh_pending &&
        (j >= received.size() || !fresher(received[j], sender_fresh))) {
      in = &sender_fresh;
      in_is_fresh = true;
    } else if (j < received.size()) {
      in = &received[j];
    }
    if (i < current && (in == nullptr || fresher(slot[i], *in))) {
      keep(slot[i++]);
    } else if (in != nullptr) {
      keep(*in);
      if (in_is_fresh) {
        fresh_pending = false;
      } else {
        ++j;
      }
    } else {
      break;  // both streams exhausted
    }
  }
  std::copy(merged.begin(), merged.end(), slot);
  sizes_[node] = static_cast<std::uint32_t>(merged.size());
}

void NewscastNetwork::grow_one(NodeId id) {
  GOSSIP_REQUIRE(id.value() == sizes_.size(),
                 "newscast nodes must be added in id order");
  pool_.resize(pool_.size() + cache_size_);
  sizes_.push_back(0);
}

void NewscastNetwork::bootstrap_random(std::uint32_t n, std::uint64_t now,
                                       Rng& rng) {
  GOSSIP_REQUIRE(n >= 2, "newscast bootstrap needs at least two nodes");
  const std::size_t fill = std::min<std::size_t>(cache_size_, n - 1);
  pool_.assign(static_cast<std::size_t>(n) * cache_size_, CacheEntry{});
  sizes_.assign(n, static_cast<std::uint32_t>(fill));
  // Both mark arrays restart with the epoch: a re-bootstrapped network
  // must not dedup against stamps of its previous life.
  buffers_.mark.assign(n, 0);
  buffers_.mark2.assign(n, 0);
  buffers_.epoch = 0;
  // Each view is written once, and equals what inserting the draws one
  // merge at a time would leave: every descriptor carries `now`, so
  // `fresher` orders them by ascending id; they are distinct and at most
  // c, so none is dropped; and the shift past u is monotone, so sorting
  // the raw draws sorts the ids. Pinned by
  // NewscastNetwork.BootstrapMatchesMergeReference.
  for (std::uint32_t u = 0; u < n; ++u) {
    std::vector<std::uint64_t> draws = rng.sample_distinct(n - 1, fill);
    std::sort(draws.begin(), draws.end());
    CacheEntry* slot =
        pool_.data() + static_cast<std::size_t>(u) * cache_size_;
    for (std::size_t i = 0; i < fill; ++i) {
      const auto v =
          static_cast<std::uint32_t>(draws[i] >= u ? draws[i] + 1 : draws[i]);
      slot[i] = CacheEntry{NodeId(v), now};
    }
  }
}

void NewscastNetwork::add_node(NodeId id, NodeId contact,
                               std::uint64_t now) {
  GOSSIP_REQUIRE(contact.is_valid() && contact.value() < sizes_.size(),
                 "join contact out of range");
  grow_one(id);
  // The contact's view must be snapshotted before merging: the merge
  // writes into the (possibly reallocated) pool the span points into.
  buffers_.scratch.assign(view(contact).begin(), view(contact).end());
  merge_into(buffers_, id.value(), buffers_.scratch, CacheEntry{contact, now},
             id, /*received_sorted=*/true);
  // The contact learns about the newcomer in return (it served the join).
  merge_into(buffers_, contact.value(), {}, CacheEntry{id, now},
             NodeId::invalid());
}

void NewscastNetwork::reserve_joins(std::size_t extra) {
  pool_.reserve(pool_.size() + extra * cache_size_);
  sizes_.reserve(sizes_.size() + extra);
  buffers_.mark.reserve(buffers_.mark.size() + extra);
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
  // Fused dual merge: both directions of the push–pull consume the same
  // two sorted slots, so one 4-stream walk (slot a, slot b, the two
  // fresh self-descriptors) feeds both output stagings — half the stream
  // comparisons of two independent merges, and no snapshot copy, because
  // neither slot is written until the walk is done. Candidate order and
  // keep rules reproduce merge_into for each direction exactly (each
  // output self-skips its own node's descriptors; on equal (timestamp,
  // id) keys the entries are identical by value, so either copy serves
  // both outputs) — pinned by the goldens in tests/determinism_test.cpp.
  const CacheEntry* const slot_a =
      pool_.data() + static_cast<std::size_t>(a.value()) * cache_size_;
  const CacheEntry* const slot_b =
      pool_.data() + static_cast<std::size_t>(b.value()) * cache_size_;
  const std::uint32_t len_a = sizes_[a.value()];
  const std::uint32_t len_b = sizes_[b.value()];

  const std::uint32_t epoch = begin_merge(buffers);
  const auto mark_limit = static_cast<std::uint32_t>(sizes_.size());
  buffers.mark[a.value()] = epoch;   // a never retains its own descriptor
  buffers.mark2[b.value()] = epoch;  // nor b its own

  auto& out_a = buffers.merged;
  auto& out_b = buffers.merged2;
  out_a.clear();
  out_b.clear();
  const auto keep = [&](std::vector<CacheEntry>& out,
                        std::vector<std::uint32_t>& mark, NodeId self,
                        const CacheEntry& e) {
    if (out.size() >= cache_size_) return;
    if (e.id.value() >= mark_limit) {
      // Ids the network never registered (hand-built test views).
      if (e.id == self) return;
      for (const CacheEntry& k : out) {
        if (k.id == e.id) return;
      }
      out.push_back(e);
      return;
    }
    auto& m = mark[e.id.value()];
    if (m == epoch) return;  // an earlier (fresher) copy won
    m = epoch;
    out.push_back(e);
  };

  const CacheEntry fresh_a{a, now};
  const CacheEntry fresh_b{b, now};
  bool pending_a = true;  // fresh descriptors not yet emitted
  bool pending_b = true;
  std::uint32_t i = 0;  // slot_a cursor
  std::uint32_t j = 0;  // slot_b cursor
  while (out_a.size() < cache_size_ || out_b.size() < cache_size_) {
    // Globally freshest candidate; consideration order resolves ties the
    // way the pairwise merges did (fresh descriptors before any slot
    // entry they don't strictly lose to).
    const CacheEntry* next = nullptr;
    int source = -1;  // 0: fresh_a, 1: fresh_b, 2: slot_b, 3: slot_a
    if (pending_a) {
      next = &fresh_a;
      source = 0;
    }
    if (pending_b && (next == nullptr || fresher(fresh_b, *next))) {
      next = &fresh_b;
      source = 1;
    }
    if (j < len_b && (next == nullptr || fresher(slot_b[j], *next))) {
      next = &slot_b[j];
      source = 2;
    }
    if (i < len_a && (next == nullptr || fresher(slot_a[i], *next))) {
      next = &slot_a[i];
      source = 3;
    }
    if (next == nullptr) break;  // all four streams exhausted
    keep(out_a, buffers.mark, a, *next);
    keep(out_b, buffers.mark2, b, *next);
    switch (source) {
      case 0: pending_a = false; break;
      case 1: pending_b = false; break;
      case 2: ++j; break;
      default: ++i; break;
    }
  }
  std::copy(out_a.begin(), out_a.end(),
            pool_.data() + static_cast<std::size_t>(a.value()) * cache_size_);
  std::copy(out_b.begin(), out_b.end(),
            pool_.data() + static_cast<std::size_t>(b.value()) * cache_size_);
  sizes_[a.value()] = static_cast<std::uint32_t>(out_a.size());
  sizes_[b.value()] = static_cast<std::uint32_t>(out_b.size());
}

void NewscastNetwork::exchange_partial(MergeBuffers& buffers, NodeId a,
                                       NodeId b, std::uint64_t now,
                                       bool a_sends_cache,
                                       bool b_sends_cache) {
  GOSSIP_REQUIRE(a != b, "newscast exchange with self");
  GOSSIP_REQUIRE(a.is_valid() && a.value() < sizes_.size() &&
                     b.is_valid() && b.value() < sizes_.size(),
                 "exchange() id out of range");
  // Two pairwise merges over *pre-exchange* snapshots (the fused dual
  // merge doesn't apply: the directions are asymmetric). Both outgoing
  // views are snapshotted before either merge lands so neither side sees
  // the other's post-merge cache.
  auto& snap_a = buffers.scratch;
  auto& snap_b = buffers.scratch2;
  if (a_sends_cache) snap_a.assign(view(a).begin(), view(a).end());
  if (b_sends_cache) snap_b.assign(view(b).begin(), view(b).end());
  merge_into(buffers, b.value(),
             a_sends_cache ? std::span<const CacheEntry>(snap_a)
                           : std::span<const CacheEntry>{},
             CacheEntry{a, now}, b, /*received_sorted=*/true);
  merge_into(buffers, a.value(),
             b_sends_cache ? std::span<const CacheEntry>(snap_b)
                           : std::span<const CacheEntry>{},
             CacheEntry{b, now}, a, /*received_sorted=*/true);
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

  for (NodeId initiator : order_) {
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
