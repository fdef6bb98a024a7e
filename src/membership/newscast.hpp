// Whole-network NEWSCAST state for the cycle-driven simulator: one cache
// per node, push–pull cache exchanges, bootstrap and join handling. The
// event-driven engine (src/proto) reuses NewscastCache directly and runs
// the exchange over the simulated transport instead.
//
// Storage is a single contiguous fixed-stride entry pool (SoA-style
// flattening of the former vector<NewscastCache>): node u's view lives in
// pool_[u*c .. u*c + size_[u]), sorted freshest-first. One simulated
// network at N=100k used to be 100k separately allocated entry vectors;
// now it is one allocation, which kills the per-cache malloc traffic and
// makes the cycle walk cache-friendly. Every merge runs the one kernel
// of membership/merge_union.hpp, which NewscastCache shares;
// membership_test checks each merge path against a naive reference.
//
// All merge scratch state lives in an explicit MergeBuffers value, so
// several threads can exchange caches of *disjoint* node pairs
// concurrently, each with its own buffers (the intra-rep engine's
// domain-decomposed cycles). The single-threaded entry points use the
// network's own default buffers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "membership/merge_union.hpp"
#include "membership/newscast_cache.hpp"
#include "overlay/peer_sampler.hpp"
#include "overlay/population.hpp"

namespace gossip::membership {

/// Per-node NEWSCAST caches for an entire simulated network.
class NewscastNetwork {
public:
  /// Scratch state of the merge kernel (membership/merge_union.hpp): one
  /// per thread when exchanges run concurrently on disjoint pairs. Merges
  /// size its dedup bytes lazily to the registered id space, so a
  /// default-constructed value serves any network, grown through joins
  /// or not.
  using MergeBuffers = membership::MergeBuffers;

  /// Read-only handle to one node's slice of the entry pool. Cheap to
  /// copy; invalidated by add_node (pool growth).
  class ConstCacheView {
  public:
    [[nodiscard]] std::size_t size() const { return entries().size(); }
    [[nodiscard]] bool empty() const { return entries().empty(); }
    [[nodiscard]] std::span<const CacheEntry> entries() const {
      return net_->view(NodeId(node_));
    }
    [[nodiscard]] bool contains(NodeId id) const;

    /// Uniform random cache entry — GETNEIGHBOR() over the dynamic view.
    /// Invalid when the cache is empty.
    [[nodiscard]] NodeId sample(Rng& rng) const;

  protected:
    friend class NewscastNetwork;
    ConstCacheView(const NewscastNetwork* net, std::uint32_t node)
        : net_(net), node_(node) {}
    const NewscastNetwork* net_;
    std::uint32_t node_;
  };

  /// Mutable handle: additionally supports descriptor insertion.
  class CacheView : public ConstCacheView {
  public:
    /// Inserts one descriptor, keeping the freshest copy of duplicate ids
    /// and truncating to capacity (same rule as NewscastCache::insert).
    void insert(CacheEntry entry);

  private:
    friend class NewscastNetwork;
    CacheView(NewscastNetwork* net, std::uint32_t node)
        : ConstCacheView(net, node), mutable_net_(net) {}
    NewscastNetwork* mutable_net_;
  };

  /// `cache_size` is the paper's c parameter (30 in all §7 experiments).
  explicit NewscastNetwork(std::size_t cache_size);

  [[nodiscard]] std::size_t cache_size() const { return cache_size_; }

  /// Number of registered nodes (the pool holds size() * cache_size()
  /// entry slots).
  [[nodiscard]] std::size_t size() const { return sizes_.size(); }

  /// Registers node ids [0, n) and gives each node random other nodes at
  /// timestamp `now` — the out-of-band bootstrap of §4.2. Node u's view
  /// is `rng.sample_distinct(n - 1, min(c, n - 1))` with each value
  /// v >= u shifted to v + 1, stored ascending (the freshest-first order
  /// of equal timestamps). It runs as the two passes of
  /// membership/bootstrap.hpp: one serial pass makes every node's draws,
  /// in id order, with exactly sample_distinct's calls (every NEWSCAST
  /// golden depends on this order), and leaves `rng` where per-node
  /// sample_distinct calls would; then each node settles its own slot,
  /// in fixed id chunks run through `par` (serially when null). The
  /// views are the same on any schedule.
  void bootstrap_random(std::uint32_t n, std::uint64_t now, Rng& rng,
                        const overlay::ParallelFor* par = nullptr);

  /// Adds one node. Its initial view is a copy of the `contact`'s cache
  /// plus a fresh descriptor of the contact (the §4.2 join rule).
  void add_node(NodeId id, NodeId contact, std::uint64_t now);

  /// Reserves the pool, the slot sizes and the default buffers' dedup
  /// bytes for exactly `extra` more joins. An exact reserve defeats
  /// geometric growth, so call it once with the total: called once per
  /// batch of joins, it reallocates and copies the whole pool each time.
  void reserve_joins(std::size_t extra);

  [[nodiscard]] ConstCacheView cache(NodeId id) const;
  [[nodiscard]] CacheView cache(NodeId id);

  /// Node `id`'s entries, freshest first.
  [[nodiscard]] std::span<const CacheEntry> view(NodeId id) const;

  /// Raw-pool fast path of ConstCacheView::sample: one bounds-check-free
  /// uniform draw from node `from`'s view, consuming exactly the same rng
  /// stream. This is GETNEIGHBOR() as the aggregation loop calls it —
  /// inline so the RNG and the table lookup fuse into the caller.
  /// Thread-safe for concurrent callers as long as nobody mutates the
  /// pool (the engines' propose phases are read-only).
  [[nodiscard]] NodeId sample_view(NodeId from, Rng& rng) const {
    const std::size_t u = from.value();
    const std::uint32_t n = sizes_[u];
    if (n == 0) return NodeId::invalid();
    return pool_[u * cache_size_ + rng.below(n)].id;
  }

  /// Prefetch hint for both nodes' pool slots: the N≥10⁴ pool fits no
  /// cache level, so the cycle drivers run one exchange *behind* the
  /// pair sampling and issue these while the previous pair's merges
  /// compute. Pure latency hint — no semantic effect.
  void prefetch_slots(NodeId a, NodeId b) const {
    prefetch_slot(a);
    prefetch_slot(b);
  }

  /// One symmetric push–pull cache exchange between a and b at logical
  /// time `now`: both merge the other's cache plus the other's fresh
  /// self-descriptor. Uses the network's default buffers.
  void exchange(NodeId a, NodeId b, std::uint64_t now);

  /// Same exchange with caller-owned buffers: safe to call concurrently
  /// from several threads as long as every concurrent call touches a
  /// *disjoint* {a, b} pair and uses its own MergeBuffers.
  void exchange(MergeBuffers& buffers, NodeId a, NodeId b,
                std::uint64_t now);

  /// Degraded exchange for the cache_pollute adversary: each side sends
  /// its fresh self-descriptor, but only sends its *cache* when its
  /// `*_sends_cache` flag is set. A polluting side (flag false) thus
  /// advertises nothing but itself — the sybil flood — while still
  /// receiving the honest side's full view. With both flags true the
  /// result matches exchange() (two pairwise merges of the pre-exchange
  /// views). Same concurrency contract as exchange().
  void exchange_partial(MergeBuffers& buffers, NodeId a, NodeId b,
                        std::uint64_t now, bool a_sends_cache,
                        bool b_sends_cache);

  /// One NEWSCAST cycle: every live node (random permutation) picks a
  /// uniform peer from its cache and, if that peer is alive, exchanges
  /// caches. Dead peers cost the initiator its exchange — the §4.2
  /// timeout — and age out of caches naturally. When `polluter` is
  /// non-null, node u with (*polluter)[u] != 0 runs the cache_pollute
  /// degraded exchange instead of a full one.
  void run_cycle(const overlay::Population& population, std::uint64_t now,
                 Rng& rng, const std::vector<char>* polluter = nullptr);

  /// True if the union of live nodes' cache links forms a weakly
  /// connected graph over the live population (overlay health check).
  [[nodiscard]] bool live_view_connected(
      const overlay::Population& population) const;

private:
  void prefetch_slot(NodeId id) const {
    const auto* base = reinterpret_cast<const char*>(
        pool_.data() + static_cast<std::size_t>(id.value()) * cache_size_);
    const std::size_t bytes = cache_size_ * sizeof(CacheEntry);
    for (std::size_t off = 0; off < bytes; off += 64) {
      __builtin_prefetch(base + off, /*rw=*/1, /*locality=*/1);
    }
  }

  /// merge_union over the registered id space: sizes the dedup bytes to
  /// size() ids, cuts at cache_size_ + 1 ids.
  std::size_t merge_union(MergeBuffers& buffers,
                          std::span<const CacheEntry> first,
                          std::span<const CacheEntry> second,
                          std::span<const CacheEntry> fresh) const;

  /// Writes the first `len` union entries other than `self`, at most
  /// cache_size_, into node's slot.
  void keep_union(const MergeBuffers& buffers, std::size_t len,
                  std::uint32_t node, NodeId self);

  /// The NEWSCAST merge into node's slot: from the union of the slot,
  /// the freshest-first view `received` and the sender's fresh
  /// descriptor, keep the `cache_size_` freshest distinct entries, never
  /// retaining `self` (invalid: no id is dropped).
  void merge_into(MergeBuffers& buffers, std::uint32_t node,
                  std::span<const CacheEntry> received,
                  CacheEntry sender_fresh, NodeId self);

  /// Appends an empty slot for `id` (must be the next dense id).
  void grow_one(NodeId id);

  std::size_t cache_size_;               // stride of the pool
  std::vector<CacheEntry> pool_;         // size() * cache_size_ slots
  std::vector<std::uint32_t> sizes_;     // live entries per slot
  MergeBuffers buffers_;                 // single-threaded default scratch
  std::vector<NodeId> order_;            // run_cycle() permutation buffer
};

/// Sampler over the dynamic NEWSCAST view: aggregation's GETNEIGHBOR()
/// when running on top of this membership layer. Concrete like the
/// overlay samplers, so the per-cycle variant dispatch inlines it.
class NewscastPeerSampler final {
public:
  /// The network must outlive the sampler.
  explicit NewscastPeerSampler(const NewscastNetwork& network)
      : network_(&network) {}

  NodeId sample(NodeId from, Rng& rng) const {
    return network_->sample_view(from, rng);
  }

private:
  const NewscastNetwork* network_;
};

}  // namespace gossip::membership
