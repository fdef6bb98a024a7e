// Robustness through concurrency (paper §7.3): run t concurrent
// aggregation instances and report the trimmed mean — order the t
// estimates, drop the ⌊t/3⌋ lowest and highest, average the rest. An
// "unlucky" instance (its mass was lost to a crash or an asymmetric
// message loss) lands in the discarded tails instead of the report.
#pragma once

#include <span>

#include "stats/summary.hpp"

namespace gossip::core {

/// The paper's combiner. `instance_estimates` are the t per-instance
/// outputs available at one node at the end of an epoch; they are
/// reordered in place.
inline double robust_combine(std::span<double> instance_estimates) {
  return stats::trimmed_mean_third(instance_estimates);
}

}  // namespace gossip::core
