// The NEWSCAST partial view (paper §4.4, [4]): a fixed-capacity cache of
// (peer id, timestamp) descriptors. Exchanging and merging caches —
// keeping the c freshest distinct peers — is the entire membership
// protocol; crashed peers disappear because they stop injecting fresh
// descriptors of themselves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/node_id.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"

namespace gossip::membership {

/// One cache slot: who, and how fresh the information is. Timestamps are
/// logical (cycle index in the cycle driver, simulated time in the event
/// engine); bigger is fresher.
///
/// The descriptor is packed to 8 bytes (32-bit id + 32-bit timestamp):
/// the NewscastNetwork entry pool is the dominant memory stream of a
/// cycle at N ≥ 10⁴ (run_cycle is latency-bound on two random ~c-entry
/// slots per exchange), and halving the entry width halves that
/// traffic. Logical time fits comfortably — cycle indices by
/// construction, and event-engine simulated time is guarded at spec
/// validation and again in the converting constructor below.
struct CacheEntry {
  /// Largest logical time a packed descriptor can carry.
  static constexpr std::uint64_t kMaxTimestamp = 0xffffffffULL;

  NodeId id;
  std::uint32_t timestamp = 0;

  constexpr CacheEntry() = default;
  constexpr CacheEntry(NodeId id_, std::uint64_t ts) : id(id_) {
    GOSSIP_REQUIRE(ts <= kMaxTimestamp,
                   "logical timestamp overflows the packed 32-bit clock");
    timestamp = static_cast<std::uint32_t>(ts);
  }

  friend bool operator==(const CacheEntry&, const CacheEntry&) = default;
};

static_assert(sizeof(CacheEntry) == 8,
              "CacheEntry must stay packed to 8 bytes — the entry pool "
              "walk is the cycle driver's dominant memory stream");

/// Freshest first; ties broken by id so merges are deterministic. Both
/// NewscastCache and NewscastNetwork order by this predicate, and both
/// merge through the one kernel of membership/merge_union.hpp.
constexpr bool fresher(const CacheEntry& a, const CacheEntry& b) {
  if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
  return a.id < b.id;
}

/// Fixed-capacity freshest-first view. Invariants: entries are distinct by
/// id, sorted by (timestamp desc, id asc) for deterministic behaviour, and
/// never exceed capacity.
class NewscastCache {
public:
  explicit NewscastCache(std::size_t capacity) : capacity_(capacity) {
    GOSSIP_REQUIRE(capacity >= 1, "newscast cache needs capacity >= 1");
    entries_.reserve(capacity);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::span<const CacheEntry> entries() const {
    return entries_;
  }

  [[nodiscard]] bool contains(NodeId id) const;

  /// Inserts one descriptor, keeping the freshest copy of duplicate ids
  /// and truncating to capacity.
  void insert(CacheEntry entry);

  /// The NEWSCAST merge: from the union of this cache, `received` (in
  /// any order), and the sender's own fresh descriptor, keep the
  /// `capacity` freshest distinct entries, never retaining `self` or an
  /// invalid id.
  void merge(std::span<const CacheEntry> received, CacheEntry sender_fresh,
             NodeId self);

  /// Ids below this get a per-thread dedup byte in merge(); the bytes
  /// grow to the largest such id seen (4 MiB at most), so a hostile id
  /// off the wire takes the kernel's scan path instead of a resize.
  static constexpr std::uint32_t kMaxDedupIds = 1u << 22;

  /// Uniform random cache entry; the GETNEIGHBOR() of fig. 1 when the
  /// overlay is NEWSCAST. Invalid when empty.
  [[nodiscard]] NodeId sample(Rng& rng) const;

private:
  std::size_t capacity_;
  std::vector<CacheEntry> entries_;
};

}  // namespace gossip::membership
