#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace gossip {

double Rng::exponential(double mean) {
  GOSSIP_REQUIRE(mean > 0.0, "exponential() needs a positive mean");
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - uniform());
}

std::uint64_t Rng::poisson(double mean) {
  GOSSIP_REQUIRE(mean >= 0.0, "poisson() needs a non-negative mean");
  if (mean == 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's product-of-uniforms method.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double product = uniform();
    while (product > limit) {
      ++k;
      product *= uniform();
    }
    return k;
  }
  // Normal approximation with continuity correction; adequate for the
  // large-mean case (only used for load generation, never in protocol code).
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double normal =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double value = mean + std::sqrt(mean) * normal + 0.5;
  return value <= 0.0 ? 0 : static_cast<std::uint64_t>(value);
}

std::vector<std::uint64_t> Rng::sample_distinct(std::uint64_t n,
                                                std::size_t k) {
  GOSSIP_REQUIRE(k <= n, "cannot sample more distinct values than exist");
  // Floyd's algorithm: iteration j draws t from [0, j] and adds t, or j
  // when t is already taken. Every earlier value is below j, so j itself
  // is never taken: only t needs a membership test.
  std::vector<std::uint64_t> result;
  result.reserve(k);
  if (k <= kSampleScanLimit) {
    for (std::uint64_t j = n - k; j < n; ++j) {
      const std::uint64_t t = below(j + 1);
      const bool taken =
          std::find(result.begin(), result.end(), t) != result.end();
      result.push_back(taken ? j : t);
    }
    return result;
  }
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = below(j + 1);
    if (seen.insert(t).second) {
      result.push_back(t);
    } else {
      seen.insert(j);
      result.push_back(j);
    }
  }
  return result;
}

}  // namespace gossip
