#include "membership/newscast.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <type_traits>

#include "common/require.hpp"
#include "membership/bootstrap.hpp"

namespace gossip::membership {

namespace {

// The merge kernel compares entries as packed keys: the high word is the
// flipped timestamp and the low word the id, so ascending key order is
// `fresher` order and equal keys are equal entries.
constexpr std::uint64_t kFlipTimestamp = 0xffffffffULL << 32;

constexpr std::uint64_t key_of(CacheEntry e) {
  return std::bit_cast<std::uint64_t>(e) ^ kFlipTimestamp;
}

constexpr CacheEntry entry_of(std::uint64_t key) {
  return std::bit_cast<CacheEntry>(key ^ kFlipTimestamp);
}

// Pads every run: above each cache entry's key, since the one entry
// packing to it, {invalid id, timestamp 0}, is never cached.
constexpr std::uint64_t kEnd = ~std::uint64_t{0};

// A platform where the packing would misorder entries fails to build
// instead of silently moving every NEWSCAST result.
static_assert(std::is_trivially_copyable_v<CacheEntry>);
static_assert(std::endian::native == std::endian::little,
              "key_of needs the id in the low word");

/// Key order is `fresher` order, equal keys are equal entries, and every
/// key round-trips and sits below kEnd, for each pair drawn from the
/// extreme timestamps and ids (equal timestamps included).
constexpr bool keys_order_like_fresher() {
  constexpr std::uint32_t ids[] = {0, 1, 0xfffffffe};
  constexpr std::uint64_t times[] = {0, 1, CacheEntry::kMaxTimestamp};
  for (const std::uint32_t ia : ids) {
    for (const std::uint64_t ta : times) {
      const CacheEntry a{NodeId(ia), ta};
      if (entry_of(key_of(a)) != a || key_of(a) == kEnd) return false;
      for (const std::uint32_t ib : ids) {
        for (const std::uint64_t tb : times) {
          const CacheEntry b{NodeId(ib), tb};
          if ((key_of(a) < key_of(b)) != fresher(a, b)) return false;
          if ((key_of(a) == key_of(b)) != (a == b)) return false;
        }
      }
    }
  }
  return true;
}
static_assert(keys_order_like_fresher(),
              "packed keys must order cache entries like fresher()");

/// Returns `v` unchanged but hides where it came from, so the compiler
/// cannot thread the comparisons that follow back into the min that made
/// it. Without it GCC turns the merge step's min into data-dependent
/// jumps, which mispredict about every other step.
inline std::uint64_t opaque(std::uint64_t v) {
  __asm__("" : "+r"(v));
  return v;
}

/// Copies a freshest-first run into `out` as keys, then the end key.
/// Returns one past the end key.
std::uint64_t* load_run(std::span<const CacheEntry> run, std::uint64_t* out) {
  for (const CacheEntry& e : run) *out++ = key_of(e);
  *out++ = kEnd;
  return out;
}

}  // namespace

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
  // The hottest code of every NEWSCAST simulation: one call per exchange,
  // one exchange per node per cycle. Each step takes the smallest head
  // key (the freshest entry left) and advances every run whose head
  // equals it, so an entry found in two runs is emitted once. The dedup
  // is one byte per id: the entry is always written, and the length
  // grows only for an id not yet in the list (an older copy is written
  // past the end and then overwritten). The loop exits and the scan for
  // ids beyond the registered space (hand-built test views) are its
  // only branches.
  const std::size_t want = cache_size_ + 1;
  // One key past the last run's end key: the loop reads one key ahead.
  const std::size_t key_count =
      first.size() + second.size() + fresh.size() + 4;
  if (buffers.keys.size() < key_count) buffers.keys.resize(key_count);
  if (buffers.merged.size() < want) buffers.merged.resize(want);
  if (buffers.seen.size() < sizes_.size()) {
    buffers.seen.resize(sizes_.size(), 0);
  }
  std::uint64_t* const run0 = buffers.keys.data();
  std::uint64_t* const run1 = load_run(first, run0);
  std::uint64_t* const run2 = load_run(second, run1);
  load_run(fresh, run2);
  const std::uint64_t* p0 = run0;
  const std::uint64_t* p1 = run1;
  const std::uint64_t* p2 = run2;

  std::uint8_t* const seen = buffers.seen.data();
  const std::size_t limit = buffers.seen.size();
  std::uint64_t* const out = buffers.merged.data();
  std::size_t len = 0;
  // Each run's head and the key after it live in registers: a step moves
  // the next key up by a conditional move and loads the one after, so
  // the next step's min never waits on a load. A run at its end key
  // never advances, so the key read past it is never used.
  std::uint64_t x = p0[0], x_next = p0[1];
  std::uint64_t y = p1[0], y_next = p1[1];
  std::uint64_t z = p2[0], z_next = p2[1];
  while (len < want) {
    const std::uint64_t m = opaque(std::min(std::min(x, y), z));
    if (m == kEnd) break;  // every run exhausted
    const bool ax = x == m;
    const bool ay = y == m;
    const bool az = z == m;
    p0 += ax ? 1 : 0;
    p1 += ay ? 1 : 0;
    p2 += az ? 1 : 0;
    x = ax ? x_next : x;
    y = ay ? y_next : y;
    z = az ? z_next : z;
    x_next = p0[1];
    y_next = p1[1];
    z_next = p2[1];
    const auto id = static_cast<std::uint32_t>(m);
    if (id < limit) [[likely]] {
      out[len] = m;
      len += seen[id] ^ 1u;
      seen[id] = 1;
    } else if (std::none_of(out, out + len, [id](std::uint64_t kept) {
                 return static_cast<std::uint32_t>(kept) == id;
               })) {
      out[len++] = m;
    }
  }
  for (std::size_t i = 0; i < len; ++i) {
    const auto id = static_cast<std::uint32_t>(out[i]);
    if (id < limit) seen[id] = 0;
  }
  return len;
}

void NewscastNetwork::keep_union(const MergeBuffers& buffers, std::size_t len,
                                 std::uint32_t node, NodeId self) {
  CacheEntry* const slot =
      pool_.data() + static_cast<std::size_t>(node) * cache_size_;
  std::uint32_t kept = 0;
  for (std::size_t i = 0; i < len && kept < cache_size_; ++i) {
    const std::uint64_t key = buffers.merged[i];
    slot[kept] = entry_of(key);
    kept += static_cast<std::uint32_t>(key) != self.value() ? 1 : 0;
  }
  sizes_[node] = kept;
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
