// Deterministic, splittable random number generation.
//
// Every randomized component of the library takes an explicit Rng&, so a
// whole experiment is reproducible from (seed, parameters). The generator
// is xoshiro256** seeded through splitmix64; helpers provide unbiased
// bounded integers (Lemire), doubles in [0,1), Bernoulli trials and
// shuffles without going through the (implementation-defined)
// <random> distributions.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/require.hpp"

namespace gossip {

/// splitmix64 step; used to expand seeds and as a cheap mixing function.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality, 2^256-1 period.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via splitmix64 so any seed (including 0)
  /// yields a well-mixed state.
  explicit Rng(std::uint64_t seed = 0x9b1a6e3c5f0d2e47ULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Unbiased integer in [0, bound) via Lemire's multiply-shift rejection.
  std::uint64_t below(std::uint64_t bound) {
    GOSSIP_REQUIRE(bound > 0, "below() needs a positive bound");
    __extension__ using uint128 = unsigned __int128;
    std::uint64_t x = (*this)();
    uint128 m = static_cast<uint128>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<uint128>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    GOSSIP_REQUIRE(lo <= hi, "range() needs lo <= hi");
    const auto width = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(width));
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponentially distributed value with the given mean.
  double exponential(double mean);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  std::uint64_t poisson(double mean);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  /// Largest k for which sample_distinct tests membership by scanning
  /// the values drawn so far instead of hashing them.
  static constexpr std::size_t kSampleScanLimit = 64;

  /// k distinct values from [0, n) by Floyd's method: k draws, in a
  /// fixed output order. Membership is tested by a linear scan for
  /// k <= kSampleScanLimit (no allocation beyond the result) and by a
  /// hash set above it (O(k) expected). Both tests give the same output
  /// and consume the same draws.
  std::vector<std::uint64_t> sample_distinct(std::uint64_t n, std::size_t k);

  /// Derives an independent child generator; used to give each repetition
  /// or node its own stream without correlations.
  Rng split() {
    std::uint64_t s = (*this)();
    return Rng(splitmix64(s));
  }

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace gossip
