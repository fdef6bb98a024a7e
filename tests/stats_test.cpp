// Tests for src/stats: Welford statistics, the lane accumulator, merge
// law, summaries, percentiles, the paper's ⌊t/3⌋ trimmed mean,
// convergence tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "stats/convergence.hpp"
#include "stats/reduction.hpp"
#include "stats/running_stats.hpp"
#include "stats/summary.hpp"

namespace gossip::stats {
namespace {

TEST(RunningStats, EmptyIsNeutral) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_TRUE(std::isnan(rs.min()));
  EXPECT_TRUE(std::isnan(rs.max()));
}

TEST(RunningStats, SingleValue) {
  RunningStats rs;
  rs.add(3.5);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.5);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 3.5);
  EXPECT_DOUBLE_EQ(rs.max(), 3.5);
}

TEST(RunningStats, KnownSample) {
  RunningStats rs;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(v);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.population_variance(), 4.0, 1e-12);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
  EXPECT_NEAR(rs.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, PeakDistributionMatchesClosedForm) {
  // The workload of fig. 2: one node holds N, the rest 0.
  constexpr int kN = 1000;
  RunningStats rs;
  rs.add(static_cast<double>(kN));
  for (int i = 1; i < kN; ++i) rs.add(0.0);
  EXPECT_NEAR(rs.mean(), 1.0, 1e-9);
  const double expected =
      static_cast<double>(kN) * kN * (1.0 - 1.0 / kN) / (kN - 1);
  EXPECT_NEAR(rs.variance(), expected, expected * 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(99);
  RunningStats whole, left, right;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(-10.0, 10.0);
    whole.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // empty rhs: no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // empty lhs adopts rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStats, NumericallyStableAroundLargeOffset) {
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) rs.add(1e9 + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(rs.mean(), 1e9, 1e-3);
  EXPECT_NEAR(rs.variance(), 0.25 * 1000.0 / 999.0, 1e-6);
}

void expect_same_bits(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << a << " vs " << b;
}

/// Bit equality, except that any NaN matches any NaN. Which operand's
/// NaN an addition of two NaNs returns depends on the operand order the
/// compiler picks (GCC's -O2 and -O3 builds of the same stream differ),
/// so a NaN's sign and payload carry no meaning.
void expect_same_bits_or_nan(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return;
  expect_same_bits(a, b);
}

void expect_same_stream(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  expect_same_bits_or_nan(a.mean(), b.mean());
  expect_same_bits_or_nan(a.variance(), b.variance());
  expect_same_bits_or_nan(a.population_variance(), b.population_variance());
  expect_same_bits(a.min(), b.min());
  expect_same_bits(a.max(), b.max());
}

TEST(LaneStats, EqualsIndependentStreamsBitForBit) {
  // Rows of ordinary values salted with every value the branch-free
  // min/max and the Welford update must treat like RunningStats::add:
  // ±inf (whose differences turn a lane's mean into NaN), ±0.0 and NaN.
  // min and max never turn NaN, so they match bit for bit.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {kInf, -kInf, -0.0, 0.0,
                             std::numeric_limits<double>::quiet_NaN()};
  Rng rng(0x1a2e5);
  for (std::size_t t : {1u, 2u, 3u, 7u, 1000u}) {
    SCOPED_TRACE(testing::Message() << "t=" << t);
    LaneStats lanes(t);
    std::vector<RunningStats> streams(t);
    std::vector<double> row(t);
    for (std::size_t r = 0; r < 40; ++r) {
      for (double& x : row) {
        x = rng.chance(0.02) ? specials[rng.below(std::size(specials))]
                             : rng.uniform(-1e3, 1e3);
      }
      lanes.add(row.data());
      for (std::size_t i = 0; i < t; ++i) streams[i].add(row[i]);
    }
    ASSERT_EQ(lanes.lanes(), t);
    const std::vector<RunningStats> split = lanes.split();
    ASSERT_EQ(split.size(), t);
    for (std::size_t i = 0; i < t; ++i) {
      SCOPED_TRACE(testing::Message() << "lane " << i);
      expect_same_stream(lanes.lane(i), streams[i]);
      expect_same_stream(split[i], streams[i]);
    }
  }
}

TEST(LaneStats, ResetEmptiesEveryLane) {
  LaneStats lanes(3);
  const double row[] = {1.0, -2.0, 5.0};
  lanes.add(row);
  lanes.reset(2);
  ASSERT_EQ(lanes.lanes(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_same_stream(lanes.lane(i), RunningStats{});
  }
}

TEST(MergeTree, EmptyAndSingle) {
  std::vector<RunningStats> parts;
  EXPECT_EQ(merge_tree(parts).count(), 0u);
  parts.emplace_back();
  parts[0].add(2.0);
  parts[0].add(4.0);
  const RunningStats folded = merge_tree(parts);
  EXPECT_EQ(folded.count(), 2u);
  EXPECT_DOUBLE_EQ(folded.mean(), 3.0);
}

TEST(MergeTree, FoldsEveryPartialOnceIncludingEmpties) {
  // Partial counts mimic a segmented stats pass where some id-space
  // segments hold no participant (crashed ranges, N < segment count).
  Rng rng(7);
  for (std::size_t n : {2u, 3u, 7u, 8u, 64u}) {
    std::vector<RunningStats> parts(n);
    RunningStats sequential;
    for (std::size_t s = 0; s < n; ++s) {
      if (s % 3 == 2) continue;  // every third partial stays empty
      for (int i = 0; i < 10; ++i) {
        const double v = rng.uniform(-5.0, 5.0);
        parts[s].add(v);
        sequential.add(v);
      }
    }
    const RunningStats folded = merge_tree(parts);
    EXPECT_EQ(folded.count(), sequential.count()) << n;
    EXPECT_NEAR(folded.mean(), sequential.mean(), 1e-12) << n;
    EXPECT_NEAR(folded.variance(), sequential.variance(), 1e-10) << n;
    EXPECT_DOUBLE_EQ(folded.min(), sequential.min()) << n;
    EXPECT_DOUBLE_EQ(folded.max(), sequential.max()) << n;
  }
}

TEST(MergeTree, ShapeIsAFunctionOfPartialCountOnly) {
  // The fixed-shape law the sharded stats pass relies on: folding the
  // same partials twice is bit-identical, and the shape never depends
  // on *which* partials are empty (only how many there are).
  Rng rng(13);
  std::vector<RunningStats> parts(16);
  for (auto& p : parts) {
    for (int i = 0; i < 5; ++i) p.add(rng.uniform(0.0, 1.0));
  }
  std::vector<RunningStats> copy = parts;
  const RunningStats a = merge_tree(parts);
  const RunningStats b = merge_tree(copy);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
}

TEST(Summary, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summary, OddAndEvenMedian) {
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(summarize(odd).median, 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(summarize(even).median, 2.5);
}

TEST(Summary, MatchesRunningStats) {
  Rng rng(5);
  std::vector<double> values;
  RunningStats rs;
  for (int i = 0; i < 200; ++i) {
    values.push_back(rng.uniform());
    rs.add(values.back());
  }
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 200u);
  EXPECT_NEAR(s.mean, rs.mean(), 1e-12);
  EXPECT_NEAR(s.variance, rs.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, rs.min());
  EXPECT_DOUBLE_EQ(s.max, rs.max());
}

TEST(Percentile, Endpoints) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.3), 7.0);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 0.5), require_error);
  const std::vector<double> v{1.0};
  EXPECT_THROW(percentile(v, -0.1), require_error);
  EXPECT_THROW(percentile(v, 1.1), require_error);
}

TEST(TrimmedMean, NoTrimIsMean) {
  std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(trimmed_mean(v, 0), 2.0);
}

TEST(TrimmedMean, DropsOutliers) {
  std::vector<double> v{-1000.0, 1.0, 2.0, 3.0, 1000.0};
  EXPECT_DOUBLE_EQ(trimmed_mean(v, 1), 2.0);
}

TEST(TrimmedMean, RejectsTotalTrim) {
  std::vector<double> v{1.0, 2.0};
  EXPECT_THROW(trimmed_mean(v, 1), require_error);
  EXPECT_THROW(trimmed_mean({}, 0), require_error);
}

/// The full-sort trimmed mean trimmed_mean must reproduce bit for bit.
double full_sort_trimmed_mean(std::vector<double> values, std::size_t trim) {
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (std::size_t i = trim; i < values.size() - trim; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * trim);
}

TEST(TrimmedMean, SelectionEqualsFullSortBitForBit) {
  // Few distinct values force ties at the cut points; +inf is what the
  // COUNT size estimate feeds for a lane whose estimate is not positive.
  Rng rng(0x7a11);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 64; ++n) sizes.push_back(n);
  sizes.push_back(1000);
  for (std::size_t n : sizes) {
    for (const bool ties : {true, false}) {
      std::vector<double> input(n);
      for (double& x : input) {
        if (rng.chance(0.1)) {
          x = std::numeric_limits<double>::infinity();
        } else {
          x = ties ? 0.25 * static_cast<double>(rng.below(6))
                   : rng.uniform(0.0, 1e4);
        }
      }
      for (std::size_t trim = 0; 2 * trim < n; ++trim) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " ties=" << ties
                                        << " trim=" << trim);
        std::vector<double> scratch = input;
        expect_same_bits(trimmed_mean(scratch, trim),
                         full_sort_trimmed_mean(input, trim));
        // In place: the input is reordered, never changed.
        std::sort(scratch.begin(), scratch.end());
        std::vector<double> sorted = input;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(scratch, sorted);
      }
    }
  }
}

TEST(TrimmedMeanThird, PaperRule) {
  // t = 7: drop floor(7/3) = 2 from each side, average the middle 3.
  std::vector<double> v{0.0, 0.1, 10.0, 11.0, 12.0, 100.0, 200.0};
  EXPECT_DOUBLE_EQ(trimmed_mean_third(v), 11.0);
}

TEST(TrimmedMeanThird, SmallSamplesKeepEverything) {
  std::vector<double> one{5.0};
  EXPECT_DOUBLE_EQ(trimmed_mean_third(one), 5.0);
  std::vector<double> two{4.0, 6.0};
  EXPECT_DOUBLE_EQ(trimmed_mean_third(two), 5.0);
}

TEST(TrimmedMeanThird, RobustToSingleCorruptInstance) {
  // The §7.3 scenario: one of t=10 concurrent COUNT instances exploded.
  std::vector<double> v(10, 100000.0);
  v[3] = 1e9;
  EXPECT_DOUBLE_EQ(trimmed_mean_third(v), 100000.0);
}

TEST(Convergence, FactorSeries) {
  ConvergenceTracker t;
  t.record(100.0);
  t.record(30.0);
  t.record(9.0);
  EXPECT_EQ(t.cycles(), 2u);
  EXPECT_NEAR(t.factor(1), 0.3, 1e-12);
  EXPECT_NEAR(t.factor(2), 0.3, 1e-12);
  EXPECT_NEAR(t.mean_factor(2), 0.3, 1e-12);
}

TEST(Convergence, FactorOutOfRangeThrows) {
  ConvergenceTracker t;
  t.record(1.0);
  EXPECT_THROW((void)t.factor(1), require_error);
  t.record(0.5);
  EXPECT_THROW((void)t.factor(0), require_error);
  EXPECT_THROW((void)t.factor(2), require_error);
  EXPECT_THROW((void)t.mean_factor(2), require_error);
}

TEST(Convergence, ZeroVarianceIsStable) {
  ConvergenceTracker t;
  t.record(0.0);
  t.record(0.0);
  EXPECT_DOUBLE_EQ(t.factor(1), 1.0);
  EXPECT_DOUBLE_EQ(t.mean_factor(1), 1.0);
}

TEST(Convergence, NormalizedSeriesAndFloor) {
  ConvergenceTracker t;
  t.record(100.0);
  t.record(10.0);
  t.record(1e-30);
  const auto norm = t.normalized(1e-16);
  ASSERT_EQ(norm.size(), 3u);
  EXPECT_DOUBLE_EQ(norm[0], 1.0);
  EXPECT_DOUBLE_EQ(norm[1], 0.1);
  EXPECT_DOUBLE_EQ(norm[2], 1e-16);  // clamped
}

TEST(Convergence, MeanFactorIsGeometric) {
  ConvergenceTracker t;
  t.record(1.0);
  t.record(0.5);   // factor 0.5
  t.record(0.05);  // factor 0.1
  // geometric mean over 2 cycles = sqrt(0.05)
  EXPECT_NEAR(t.mean_factor(2), std::sqrt(0.05), 1e-12);
}

}  // namespace
}  // namespace gossip::stats
