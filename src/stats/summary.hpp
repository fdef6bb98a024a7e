// Batch summaries of a finished sample: order statistics and the robust
// trimmed mean used by the paper's multi-instance COUNT (§7.3).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gossip::stats {

/// Summary of a sample computed in one call (copies + sorts internally).
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased (n-1)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

/// Summarizes `values`; an empty span yields an all-zero Summary.
Summary summarize(std::span<const double> values);

/// Linear-interpolation percentile, p in [0,1]. Requires non-empty input.
double percentile(std::span<const double> values, double p);

/// The paper's robust combiner (§7.3): drop the ⌊t/3⌋ lowest and ⌊t/3⌋
/// highest of the t estimates, average the rest. With fewer than three
/// values nothing is dropped. Reorders `values` in place.
double trimmed_mean_third(std::span<double> values);

/// General trimmed mean dropping `trim` values from each side: the sum
/// of the kept values in ascending order over their count. Reorders
/// `values` in place, so callers pass a scratch copy.
double trimmed_mean(std::span<double> values, std::size_t trim);

}  // namespace gossip::stats
