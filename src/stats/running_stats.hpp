// Single-pass summary statistics (Welford / Chan parallel merge).
//
// Used everywhere the paper measures something: the empirical mean µ_i and
// (unbiased) variance σ²_i of the node estimates at each cycle (paper
// eq. 1), and distributions across repeated experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace gossip::stats {

/// Numerically stable running mean/variance/min/max.
class RunningStats {
public:
  RunningStats() = default;

  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  /// Chan et al. pairwise merge; allows sharding a pass over nodes.
  void merge(const RunningStats& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Unbiased sample variance (divides by n-1, as in paper eq. 1).
  [[nodiscard]] double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }

  /// Population variance (divides by n).
  [[nodiscard]] double population_variance() const {
    return count_ < 1 ? 0.0 : m2_ / static_cast<double>(count_);
  }

  [[nodiscard]] double stddev() const;

  [[nodiscard]] double min() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
  }
  [[nodiscard]] double max() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
  }

private:
  friend class LaneStats;
  RunningStats(std::uint64_t count, double mean, double m2, double min,
               double max)
      : count_(count), mean_(mean), m2_(m2), min_(min), max_(max) {}

  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// t RunningStats streams that all see the same number of values: the
/// per-lane statistics of a t-instance run, one node's row of t
/// estimates per add(). The count is shared and the lanes are stored
/// as arrays, so the fold is one branch-free loop that vectorizes; each
/// lane's arithmetic is RunningStats::add's, so lane(i) is bit for bit
/// the RunningStats that t separate add() streams would hold.
class LaneStats {
public:
  explicit LaneStats(std::size_t lanes = 0) { reset(lanes); }

  /// Empties every stream and sets the lane count.
  void reset(std::size_t lanes);

  /// Folds row[i] into lane i, for each of the lanes() values of `row`.
  void add(const double* row) {
    ++count_;
    fold(mean_.size(), static_cast<double>(count_), row, mean_.data(),
         m2_.data(), min_.data(), max_.data());
  }

  [[nodiscard]] std::size_t lanes() const { return mean_.size(); }

  /// Lane i's stream.
  [[nodiscard]] RunningStats lane(std::size_t i) const {
    return {count_, mean_[i], m2_[i], min_[i], max_[i]};
  }

  /// Every lane's stream, lane order.
  [[nodiscard]] std::vector<RunningStats> split() const;

private:
  // `x < m ? x : m` is `if (x < m) m = x` for every input, NaN and -0.0
  // included, and unlike the branch it vectorizes. The mean is divided
  // by the count, never multiplied by its reciprocal: that would round
  // differently from RunningStats::add.
  static void fold(std::size_t lanes, double n, const double* __restrict row,
                   double* __restrict mean, double* __restrict m2,
                   double* __restrict min, double* __restrict max) {
    for (std::size_t i = 0; i < lanes; ++i) {  // hot-kernel: lane-stats
      const double x = row[i];
      const double d = x - mean[i];
      mean[i] += d / n;
      m2[i] += d * (x - mean[i]);
      min[i] = x < min[i] ? x : min[i];
      max[i] = x > max[i] ? x : max[i];
    }
  }

  std::uint64_t count_ = 0;
  std::vector<double> mean_;
  std::vector<double> m2_;
  std::vector<double> min_;
  std::vector<double> max_;
};

}  // namespace gossip::stats
