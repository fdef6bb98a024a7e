// The traced run's layer-by-layer replay must compute exactly what the
// Engine facade computes, or its per-layer times would describe a
// different run. Checked at N=2000 on each simulator workload's shape.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "experiment/engine.hpp"
#include "experiment/parallel_runner.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace gossip;
using namespace gossip::bench;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_stats(const stats::RunningStats& x, const stats::RunningStats& y) {
  return x.count() == y.count() && same_bits(x.mean(), y.mean()) &&
         same_bits(x.variance(), y.variance()) &&
         same_bits(x.min(), y.min()) && same_bits(x.max(), y.max());
}

/// Bit-for-bit equality of everything the Engine reports for a
/// cycle-driver rep.
bool same_results(const std::vector<experiment::RunResult>& a,
                  const std::vector<experiment::RunResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    const experiment::RunResult& x = a[r];
    const experiment::RunResult& y = b[r];
    if (x.per_cycle.size() != y.per_cycle.size() ||
        x.participants != y.participants ||
        x.tracker.variances().size() != y.tracker.variances().size()) {
      return false;
    }
    for (std::size_t c = 0; c < x.per_cycle.size(); ++c) {
      if (!same_stats(x.per_cycle[c], y.per_cycle[c])) return false;
    }
    for (std::size_t c = 0; c < x.tracker.variances().size(); ++c) {
      if (!same_bits(x.tracker.variances()[c], y.tracker.variances()[c])) {
        return false;
      }
    }
    const auto& sx = x.sizes;
    const auto& sy = y.sizes;
    if (sx.count != sy.count || !same_bits(sx.mean, sy.mean) ||
        !same_bits(sx.variance, sy.variance) || !same_bits(sx.min, sy.min) ||
        !same_bits(sx.max, sy.max) || !same_bits(sx.median, sy.median)) {
      return false;
    }
  }
  return true;
}

Workload small(const std::string& name) {
  return shrunk(make_workload(name, /*seed=*/7, /*threads=*/4));
}

void expect_replay_matches_engine(const Workload& w) {
  experiment::Engine engine;
  const auto expected = engine.run_point(w.spec, 0);

  experiment::ParallelRunner pool(pool_threads(w));
  Tracer tracer;
  const std::uint32_t root = tracer.begin("trial", kNoSpan);
  const auto replayed = replay_point(w, pool, &tracer, root, nullptr);
  tracer.end(root);

  EXPECT_TRUE(same_results(expected, replayed));
  EXPECT_EQ(variance_digest(expected), variance_digest(replayed));

  // workload → rep → phase nesting, one span per call.
  std::map<std::string, int> names;
  for (const Span& s : tracer.spans()) ++names[s.name];
  EXPECT_EQ(names["trial"], 1);
  EXPECT_EQ(names["rep"], static_cast<int>(w.spec.reps));
  for (const char* phase :
       {"experiment.setup", "experiment.run", "experiment.finish"}) {
    EXPECT_EQ(names[phase], static_cast<int>(w.spec.reps)) << phase;
  }
}

TEST(BenchDecompositionParity, RepParallelAverage) {
  expect_replay_matches_engine(small("reps_newscast"));
}

TEST(BenchDecompositionParity, IntraRep) {
  const Workload w = small("intra_newscast");
  expect_replay_matches_engine(w);

  experiment::Engine engine;
  experiment::ParallelRunner pool(pool_threads(w));
  const std::vector<experiment::RunResult> single = {
      engine.run_single(w.spec, rep_seed_of(w, 0))};
  EXPECT_TRUE(same_results(single,
                           replay_point(w, pool, nullptr, kNoSpan, nullptr)));
}

TEST(BenchDecompositionParity, CountLanesUnderChurn) {
  expect_replay_matches_engine(small("count_lanes_churn"));
}

}  // namespace
