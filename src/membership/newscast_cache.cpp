#include "membership/newscast_cache.hpp"

#include <algorithm>

#include "membership/merge_union.hpp"

namespace gossip::membership {

bool NewscastCache::contains(NodeId id) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [id](const CacheEntry& e) { return e.id == id; });
}

void NewscastCache::insert(CacheEntry entry) {
  GOSSIP_REQUIRE(entry.id.is_valid(), "cannot cache an invalid node id");
  merge({}, entry, NodeId::invalid());
}

void NewscastCache::merge(std::span<const CacheEntry> received,
                          CacheEntry sender_fresh, NodeId self) {
  // The runtime's per-message membership step, on the simulators'
  // kernel. The thread_local scratch is safe: caches are only ever
  // mutated by their owning host thread.
  static thread_local MergeBuffers buffers;
  static thread_local std::vector<CacheEntry> sorted;

  // A received view is freshest-first by class invariant, but public
  // callers (and the wire) may hand us arbitrary spans.
  if (!std::is_sorted(received.begin(), received.end(), fresher)) {
    sorted.assign(received.begin(), received.end());
    std::sort(sorted.begin(), sorted.end(), fresher);
    received = sorted;
  }
  const std::span<const CacheEntry> fresh(
      &sender_fresh, sender_fresh.id.is_valid() ? 1 : 0);

  // One dedup byte per id up to the largest one received, below the cap;
  // larger ids take the kernel's scan path. Our own entries were received
  // once, so they rarely raise it: sizing from `received` alone is ~10%
  // faster than a pass over every run.
  std::uint32_t top = 0;
  for (const CacheEntry& e : received) {
    const std::uint32_t id = e.id.value();
    top = std::max(top, id < kMaxDedupIds ? id + 1 : 0);
  }
  const std::uint32_t id = sender_fresh.id.value();
  top = std::max(top, id < kMaxDedupIds ? id + 1 : 0);
  if (buffers.seen.size() < top) buffers.seen.resize(top, 0);

  const std::size_t len =
      merge_union(buffers, entries_, received, fresh, capacity_ + 1);
  // keep_union writes at most min(len, capacity_) slots.
  entries_.resize(std::min(len, capacity_));
  entries_.resize(keep_union(buffers, len, self, entries_.data(), capacity_));
}

NodeId NewscastCache::sample(Rng& rng) const {
  if (entries_.empty()) return NodeId::invalid();
  return entries_[rng.below(entries_.size())].id;
}

}  // namespace gossip::membership
