#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "stats/running_stats.hpp"

namespace gossip::stats {

Summary summarize(std::span<const double> values) {
  Summary s;
  if (values.empty()) return s;
  RunningStats rs;
  for (double v : values) rs.add(v);
  s.count = values.size();
  s.mean = rs.mean();
  s.variance = rs.variance();
  s.min = rs.min();
  s.max = rs.max();
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  s.median = (n % 2 == 1) ? sorted[n / 2]
                          : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  return s;
}

double percentile(std::span<const double> values, double p) {
  GOSSIP_REQUIRE(!values.empty(), "percentile of empty sample");
  GOSSIP_REQUIRE(p >= 0.0 && p <= 1.0, "percentile p must be in [0,1]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double trimmed_mean(std::span<double> values, std::size_t trim) {
  GOSSIP_REQUIRE(!values.empty(), "trimmed mean of empty sample");
  GOSSIP_REQUIRE(2 * trim < values.size(),
                 "trim would discard the whole sample");
  // Two selections place the cut points, so only the kept middle is
  // sorted: the same values in the same order as a full sort would
  // leave there, so the same sum.
  const auto lo = values.begin() + static_cast<std::ptrdiff_t>(trim);
  const auto hi = values.end() - static_cast<std::ptrdiff_t>(trim);
  std::nth_element(values.begin(), lo, values.end());
  std::nth_element(lo, hi, values.end());
  std::sort(lo, hi);
  double sum = 0.0;
  for (auto it = lo; it != hi; ++it) sum += *it;
  return sum / static_cast<double>(hi - lo);
}

double trimmed_mean_third(std::span<double> values) {
  GOSSIP_REQUIRE(!values.empty(), "trimmed mean of empty sample");
  return trimmed_mean(values, values.size() / 3);
}

}  // namespace gossip::stats
