// Benchmark scaling.
//
// The paper's experiments run at N = 10⁵–10⁶ with 50–100 repetitions;
// that is minutes-to-hours per figure. Every registered scenario
// therefore has a scaled-down default (documented in EXPERIMENTS.md);
// gossip_run's `--set full=1` selects the paper's numbers, and
// `--set nodes|reps|seed` override them.
#pragma once

#include <cstdint>

namespace gossip::experiment {

struct Scale {
  std::uint32_t nodes;
  std::uint32_t reps;
  std::uint64_t seed;
  bool full;
};

/// The scale a scenario starts from: `paper_*` (what the paper used)
/// when `full`, else the scaled defaults `def_*`; the base seed is
/// always 0x5eed.
inline Scale bench_scale(std::uint32_t def_nodes, std::uint32_t def_reps,
                         std::uint32_t paper_nodes, std::uint32_t paper_reps,
                         bool full = false) {
  return Scale{full ? paper_nodes : def_nodes, full ? paper_reps : def_reps,
               0x5eedULL, full};
}

}  // namespace gossip::experiment
