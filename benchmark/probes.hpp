// Kernel probes: each times one layer's public call on the workload's own
// shape (network size, cache size, lane count), so a per-layer number can
// be set beside the end-to-end result it should move.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "trace.hpp"

namespace gossip::bench {

struct ProbeShape {
  std::uint32_t nodes = 0;
  std::uint32_t cache_size = 0;
  std::uint32_t instances = 1;  ///< estimate lanes per node
};

/// Runs every probe once, each inside its own span under `parent`, and
/// returns the per-layer metrics they measure, keyed by metric name.
std::map<std::string, double> run_probes(const ProbeShape& shape,
                                         std::uint64_t seed, Tracer& tracer,
                                         std::uint32_t parent);

}  // namespace gossip::bench
