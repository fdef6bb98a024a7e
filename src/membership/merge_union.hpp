// The NEWSCAST merge kernel, the one implementation of §4.4's "keep the
// c freshest distinct descriptors" that every cache representation runs:
// NewscastNetwork's whole-network entry pool (the cycle drivers) and the
// per-node NewscastCache (proto::Node, so the event host and the runtime
// executor). It is header-inline so each caller's merge compiles it in
// place.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/node_id.hpp"
#include "membership/newscast_cache.hpp"

namespace gossip::membership {

/// Scratch state of the merge kernel: one per thread when merges run
/// concurrently, reused so merges never allocate. `seen` holds one
/// dedup byte per id below its size; the caller sizes it, and ids at or
/// past its end take a scan of the kept list instead.
struct MergeBuffers {
  std::vector<std::uint64_t> keys;    // packed inputs, sentinel-padded
  std::vector<std::uint64_t> merged;  // freshest-first distinct union
  std::vector<std::uint8_t> seen;     // id -> 1 while in merged; else 0
};

namespace merge_detail {

// The kernel compares entries as packed keys: the high word is the
// flipped timestamp and the low word the id, so ascending key order is
// `fresher` order and equal keys are equal entries.
constexpr std::uint64_t kFlipTimestamp = 0xffffffffULL << 32;

constexpr std::uint64_t key_of(CacheEntry e) {
  return std::bit_cast<std::uint64_t>(e) ^ kFlipTimestamp;
}

constexpr CacheEntry entry_of(std::uint64_t key) {
  return std::bit_cast<CacheEntry>(key ^ kFlipTimestamp);
}

// Pads every run. Only {invalid id, timestamp 0} packs to it, and the
// kernel never keeps an invalid id.
constexpr std::uint64_t kEnd = ~std::uint64_t{0};

constexpr std::uint32_t kInvalidId = NodeId::invalid().value();

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
inline std::uint64_t* load_run(std::span<const CacheEntry> run,
                               std::uint64_t* out) {
  for (const CacheEntry& e : run) *out++ = key_of(e);
  *out++ = kEnd;
  return out;
}

}  // namespace merge_detail

/// The freshest-first, distinct-by-id union of three freshest-first runs
/// (which may alias the memory the caller writes next), cut at `want`
/// ids, into buffers.merged. Returns its length. Invalid ids are never
/// kept.
///
/// The hottest code of every NEWSCAST run: one call per simulated
/// exchange, one per merged message on the live hosts. Each step takes
/// the smallest head key (the freshest entry left) and advances every
/// run whose head equals it, so an entry found in two runs is emitted
/// once. The dedup is one byte per id: the entry is always written, and
/// the length grows only for an id not yet in the list (an older copy is
/// written past the end and then overwritten). The loop exits and the
/// scan for ids past the dedup bytes are its only branches. Always
/// inlined: GCC left it out of line when its body grew, and a call per
/// exchange costs the cycle drivers.
[[gnu::always_inline]] inline std::size_t merge_union(MergeBuffers& buffers,
                               std::span<const CacheEntry> first,
                               std::span<const CacheEntry> second,
                               std::span<const CacheEntry> fresh,
                               std::size_t want) {
  using namespace merge_detail;
  // One key past the last run's end key: the loop reads one key ahead.
  const std::size_t key_count =
      first.size() + second.size() + fresh.size() + 4;
  if (buffers.keys.size() < key_count) buffers.keys.resize(key_count);
  if (buffers.merged.size() < want) buffers.merged.resize(want);
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
    } else if (id != kInvalidId &&
               std::none_of(out, out + len, [id](std::uint64_t kept) {
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

/// Writes the first `len` union entries other than `self`, at most
/// `capacity`, to `out`. Returns how many it wrote.
inline std::uint32_t keep_union(const MergeBuffers& buffers, std::size_t len,
                                NodeId self, CacheEntry* out,
                                std::size_t capacity) {
  std::uint32_t kept = 0;
  for (std::size_t i = 0; i < len && kept < capacity; ++i) {
    const std::uint64_t key = buffers.merged[i];
    out[kept] = merge_detail::entry_of(key);
    kept += static_cast<std::uint32_t>(key) != self.value() ? 1 : 0;
  }
  return kept;
}

}  // namespace gossip::membership
