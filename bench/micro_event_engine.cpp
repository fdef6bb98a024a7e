// Micro-benchmarks for the event-driven engine: raw event-loop
// throughput, transport round-trips, and whole protocol-world cycles.
// Also prints the cross-engine ablation DESIGN.md calls out: the
// event-driven convergence factor vs the cycle driver's (both must sit in
// the 1/(2√e)..1/e band).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "experiment/cycle_sim.hpp"
#include "experiment/engine.hpp"
#include "experiment/spec.hpp"
#include "failure/failure_plan.hpp"
#include "proto/world.hpp"
#include "sim/event_loop.hpp"
#include "theory/predictions.hpp"

namespace {

using namespace gossip;

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_at(static_cast<sim::SimTime>(i % 97), [&sink] { ++sink; });
    }
    loop.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_ProtoWorldCycle(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  proto::WorldConfig cfg;
  cfg.nodes = n;
  cfg.seed = 42;
  proto::World world(cfg);
  world.start();
  for (auto _ : state) {
    world.run_cycles(1);
    benchmark::DoNotOptimize(world.loop().executed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ProtoWorldCycle)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Ablation note (not a timing benchmark): cross-engine agreement of the
  // convergence factor.
  {
    using namespace gossip;
    auto spec = experiment::ScenarioSpec::average_peak("micro", 2000, 15)
                    .with_topology(experiment::TopologyConfig::newscast(20))
                    .with_engine(experiment::EngineKind::kSerial);
    experiment::Engine engine;
    const auto cycle_run = engine.run_single(spec, 7);
    const double cycle_factor = cycle_run.tracker.mean_factor(12);

    proto::WorldConfig wcfg;
    wcfg.nodes = 2000;
    wcfg.seed = 7;
    wcfg.protocol.cache_size = 20;
    proto::World world(wcfg);
    world.start();
    world.run_cycles(2);
    const double va = world.estimate_summary().variance;
    world.run_cycles(10);
    const double vb = world.estimate_summary().variance;
    const double event_factor = std::pow(vb / va, 0.1);

    std::printf(
        "engines-agree ablation: cycle-driver factor=%.4f  event-driven "
        "factor=%.4f  (theory band %.4f..%.4f)\n\n",
        cycle_factor, event_factor, theory::push_pull_factor(),
        theory::uniform_pairing_factor());
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
