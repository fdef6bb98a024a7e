#include "stats/running_stats.hpp"

#include <cmath>

namespace gossip::stats {

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ += delta * static_cast<double>(other.count_) / total;
  count_ += other.count_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void LaneStats::reset(std::size_t lanes) {
  count_ = 0;
  mean_.assign(lanes, 0.0);
  m2_.assign(lanes, 0.0);
  min_.assign(lanes, std::numeric_limits<double>::infinity());
  max_.assign(lanes, -std::numeric_limits<double>::infinity());
}

std::vector<RunningStats> LaneStats::split() const {
  std::vector<RunningStats> out;
  out.reserve(lanes());
  for (std::size_t i = 0; i < lanes(); ++i) out.push_back(lane(i));
  return out;
}

}  // namespace gossip::stats
