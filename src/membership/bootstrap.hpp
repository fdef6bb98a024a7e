// The §4.2 out-of-band bootstrap of one NEWSCAST view: `fill` distinct
// random other nodes, every descriptor stamped `now`. Both simulator
// hosts draw their views through these two functions —
// NewscastNetwork::bootstrap_random for the cycle engines, proto::World
// for the event driver — so the rule lives here once.
//
// The draw is Floyd's method (Bentley & Floyd, "A sample of brilliance",
// CACM 1987), the same calls Rng::sample_distinct(n - 1, fill) makes,
// split into two passes so that everything but the RNG calls can run
// per node on any thread:
//
//   1. draw_bootstrap makes the raw draws and parks them in the id words
//      of the node's own slot. It is the whole of the RNG traffic.
//   2. settle_bootstrap resolves Floyd's collisions, then writes each id
//      at its rank among the node's ids, shifted past the node itself.
//      It touches nothing but the slot, so nodes settle in any order.
//
// At the paper's c = 30 the settle pass is two branch-free counting
// loops over a stack array — no allocation, no sort, no mispredicted
// branch — and the lane_kernels_vectorized ctest keeps both vectorized.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "membership/newscast_cache.hpp"

namespace gossip::membership {

/// Pass 1 for one node of an `n`-node network: the raw Floyd draws of
/// rng.sample_distinct(n - 1, slot.size()) into the slot's id words
/// (slot.size() <= n - 1). Draw i is rng.below(n - slot.size() + i):
/// sample_distinct's calls in its order, so the RNG ends where
/// sample_distinct leaves it.
inline void draw_bootstrap(Rng& rng, std::uint32_t n,
                           std::span<CacheEntry> slot) {
  const std::uint64_t first_bound = n - slot.size();
  for (std::size_t i = 0; i < slot.size(); ++i) {
    slot[i].id =
        NodeId(static_cast<std::uint32_t>(rng.below(first_bound + i)));
  }
}

/// Pass 2 for node `u` of an `n`-node network: turns the raw draws in
/// `slot` into u's view. The ids are the values sample_distinct returns
/// for those draws, each v >= u shifted to v + 1, stored ascending — the
/// freshest-first order of equal timestamps — and stamped `now`. That is
/// the view inserting the ids one at a time would leave: they are
/// distinct and at most c, so none is dropped, and the shift is
/// monotone, so ranking the values ranks the ids.
inline void settle_bootstrap(std::uint32_t u, std::uint32_t n,
                             std::uint64_t now, std::span<CacheEntry> slot) {
  const CacheEntry stamp{NodeId::invalid(), now};  // checks the clock
  const std::size_t fill = slot.size();
  // Draw i collides into j_i = first_j + i, the largest value it could
  // have drawn, which no earlier value can equal.
  const auto first_j = static_cast<std::uint32_t>(n - 1 - fill);
  const auto write = [&](std::size_t rank, std::uint32_t v) {
    CacheEntry e = stamp;
    e.id = NodeId(v + (v >= u ? 1u : 0u));
    slot[rank] = e;
  };
  if (fill > Rng::kSampleScanLimit) {
    // sample_distinct's hash-set membership test, then a sort.
    std::unordered_set<std::uint32_t> taken;
    std::vector<std::uint32_t> values(fill);
    for (std::size_t i = 0; i < fill; ++i) {
      const std::uint32_t t = slot[i].id.value();
      if (taken.insert(t).second) {
        values[i] = t;
      } else {
        values[i] = static_cast<std::uint32_t>(first_j + i);
        taken.insert(values[i]);
      }
    }
    std::sort(values.begin(), values.end());
    for (std::size_t i = 0; i < fill; ++i) write(i, values[i]);
    return;
  }
  // The scan counts earlier values equal to the draw rather than or-ing
  // a flag, and the rank counts smaller values: both loops are
  // branch-free reductions, which is what lets GCC vectorize them.
  std::uint32_t d[Rng::kSampleScanLimit] = {};
  for (std::size_t i = 0; i < fill; ++i) {
    const std::uint32_t t = slot[i].id.value();
    std::uint32_t hits = 0;
    for (std::size_t m = 0; m < i; ++m) {  // hot-kernel: bootstrap-scan
      hits += d[m] == t;
    }
    d[i] = hits != 0 ? static_cast<std::uint32_t>(first_j + i) : t;
  }
  for (std::size_t i = 0; i < fill; ++i) {
    const std::uint32_t v = d[i];
    std::uint32_t rank = 0;
    for (std::size_t m = 0; m < fill; ++m) {  // hot-kernel: bootstrap-rank
      rank += d[m] < v;
    }
    write(rank, v);
  }
}

}  // namespace gossip::membership
