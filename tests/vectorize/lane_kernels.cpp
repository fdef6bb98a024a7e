// The hot kernels alone, for the lane_kernels_vectorized ctest
// (check_vectorized.py): the AVERAGE lane update of a completed and of a
// response-lost exchange and the per-lane statistics fold — COUNT's
// per-exchange and per-snapshot loops — and the per-node pass of the
// NEWSCAST bootstrap.
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/update.hpp"
#include "membership/bootstrap.hpp"
#include "stats/running_stats.hpp"

void lane_kernels(double* p, double* q, std::size_t lanes, bool completed,
                  gossip::stats::LaneStats& stats) {
  gossip::core::update_lanes<gossip::core::AverageUpdate>(p, q, lanes,
                                                          completed);
  stats.add(p);
}

void bootstrap_kernel(std::uint32_t u, std::uint32_t n,
                      std::span<gossip::membership::CacheEntry> slot) {
  gossip::membership::settle_bootstrap(u, n, 0, slot);
}
