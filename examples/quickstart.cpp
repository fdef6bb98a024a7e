// Quickstart: the library in five minutes.
//
//   1. build an overlay (NEWSCAST, the paper's deployable choice),
//   2. run the push–pull AVERAGE protocol for one 30-cycle epoch,
//   3. watch the variance collapse at the theoretical rate 1/(2√e),
//   4. derive COUNT / SUM / VARIANCE from averaging runs (§5).
//
// Run:  build/examples/quickstart
#include <cstdio>

#include "core/count.hpp"
#include "core/derived.hpp"
#include "experiment/cycle_sim.hpp"
#include "failure/failure_plan.hpp"
#include "stats/summary.hpp"
#include "theory/predictions.hpp"

int main() {
  using namespace gossip;
  using experiment::CycleSimulation;
  using experiment::SimConfig;
  using experiment::TopologyConfig;

  constexpr std::uint32_t kNodes = 5000;
  std::printf("gossip quickstart — %u nodes, newscast overlay (c=30)\n\n",
              kNodes);

  // --- 1+2: AVERAGE over a peak distribution (true average = 1). -------
  SimConfig cfg;
  cfg.nodes = kNodes;
  cfg.cycles = 30;
  cfg.topology = TopologyConfig::newscast(30);
  CycleSimulation avg_sim(cfg, Rng(2024));
  avg_sim.init_peak(static_cast<double>(kNodes));
  avg_sim.run(failure::NoFailures{});

  // --- 3: variance collapse vs theory. ---------------------------------
  const auto tracker = avg_sim.tracker();
  std::printf("cycle   sigma^2/sigma0^2      theory rho^i\n");
  const double rho = theory::push_pull_factor();
  const auto norm = tracker.normalized(1e-30);
  for (std::size_t i = 0; i <= 30; i += 5) {
    double predicted = 1.0;
    for (std::size_t k = 0; k < i; ++k) predicted *= rho;
    std::printf("%5zu   %16.3e   %15.3e\n", i, norm[i], predicted);
  }
  std::printf("\nmeasured convergence factor: %.4f (theory 1/(2*sqrt(e)) = "
              "%.4f)\n",
              tracker.mean_factor(20), rho);
  const auto estimates = stats::summarize(avg_sim.scalar_estimates());
  std::printf("estimates after one epoch: mean=%.6f  min=%.6f  max=%.6f\n\n",
              estimates.mean, estimates.min, estimates.max);

  // --- 4: derived aggregates (§5). --------------------------------------
  // COUNT: peak value 1 at a leader => average = 1/N.
  SimConfig count_cfg = cfg;
  CycleSimulation count_sim(count_cfg, Rng(2025));
  count_sim.init_count_leaders();
  count_sim.run(failure::NoFailures{});
  const double n_hat = stats::summarize(count_sim.size_estimates()).mean;

  // AVERAGE of a synthetic load (uniform 0..10) and of its squares.
  const auto run_average_of = [&](auto value_of) {
    CycleSimulation sim(cfg, Rng(2026));
    sim.init_scalar(value_of);
    sim.run(failure::NoFailures{});
    return stats::summarize(sim.scalar_estimates()).mean;
  };
  Rng values_rng(7);
  std::vector<double> load(kNodes);
  for (auto& v : load) v = values_rng.uniform(0.0, 10.0);
  const double avg = run_average_of(
      [&load](NodeId id) { return load[id.value()]; });
  const double avg_sq = run_average_of(
      [&load](NodeId id) { return load[id.value()] * load[id.value()]; });

  std::printf("COUNT    : N_hat = %.1f (true %u)\n", n_hat, kNodes);
  std::printf("SUM      : %.1f (true %.1f)\n",
              core::sum_estimate(avg, n_hat),
              [&] { double s = 0; for (double v : load) s += v; return s; }());
  std::printf("VARIANCE : %.3f (uniform(0,10) true %.3f)\n",
              core::variance_estimate(avg_sq, avg), 100.0 / 12.0);
  std::printf("\nNext: examples/load_balancing,"
              " examples/network_monitoring\n");
  return 0;
}
