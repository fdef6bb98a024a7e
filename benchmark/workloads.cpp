#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>

#include "common/require.hpp"
#include "common/stream_salt.hpp"
#include "experiment/cycle_sim.hpp"
#include "runtime/executor.hpp"
#include "runtime/transport.hpp"
#include "stats/summary.hpp"

namespace gossip::bench {

using experiment::AggregateKind;
using experiment::EngineKind;
using experiment::ParallelRunner;
using experiment::RunResult;
using experiment::ScenarioSpec;
using experiment::TopologyConfig;

Workload make_workload(const std::string& name, std::uint64_t seed,
                       unsigned threads) {
  Workload w;
  w.name = name;
  ScenarioSpec& s = w.spec;
  // Trials are kept to a few seconds, so a run's medians cover many.
  // Where a workload's purpose allows it, N=5000 keeps a rep's 1.2 MB
  // cache pool inside one core's 2 MB L2: at N=10⁴ the same workloads
  // spread about twice as wide from run to run on a shared host.
  if (name == "reps_newscast") {
    // The §7 figure traffic: many small independent repetitions.
    w.shape = Shape::kRepParallel;
    s = ScenarioSpec::average_peak(name, 5'000, 30).with_reps(64);
    s.engine = EngineKind::kRepParallel;
  } else if (name == "intra_newscast") {
    // One N=2·10⁵ repetition: serial bootstrap set-up plus the intra-rep
    // engine's parallel phases over a 48 MB pool. At N=10⁶ (240 MB) the
    // run loop's throughput spread too wide for its bound. A single
    // peak-initialized rep has a seed-to-seed convergence factor spread
    // wider than its bound; uniform values cost the same to run.
    w.shape = Shape::kIntraRep;
    s = ScenarioSpec::average_peak(name, 200'000, 10)
            .with_init(experiment::InitKind::kUniform);
    s.engine = EngineKind::kIntraRep;
    s.shards = 8;
  } else if (name == "count_lanes_churn") {
    // 1000 COUNT lanes make the per-exchange lane arithmetic and the
    // per-cycle statistics bandwidth-bound; churn adds joins and kills.
    // Below ~13 cycles the size estimate 1/e is still biased past 5%.
    w.shape = Shape::kRepParallel;
    s = ScenarioSpec::count(name, 10'000, 15, 1000)
            .with_failure(experiment::FailureSpec::churn_fraction(0.01))
            .with_reps(4);
    s.engine = EngineKind::kRepParallel;
  } else if (name == "runtime_loopback") {
    // The live executor: real threads, proto wire encode/decode, and
    // the in-process loopback transport.
    w.shape = Shape::kRuntime;
    s = ScenarioSpec::average_peak(name, 5'000, 20)
            .with_driver(experiment::DriverKind::kRuntime)
            .with_reps(10);
    s.engine = EngineKind::kSerial;
    s.runtime.workers = threads;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  s.topology = TopologyConfig::newscast(30);
  s.seed = seed;
  s.threads = threads;
  return w;
}

Workload shrunk(Workload w) {
  w.spec.nodes = 2000;
  w.spec.reps = std::min<std::uint32_t>(w.spec.reps, 4);
  w.spec.instances = std::min<std::uint32_t>(w.spec.instances, 100);
  return w;
}

std::uint64_t rep_seed_of(const Workload& w, std::uint32_t rep) {
  return experiment::rep_seed(w.spec.seed, w.spec.sweep.points[0].seed_point,
                              rep);
}

unsigned pool_threads(const Workload& w) {
  switch (w.shape) {
    case Shape::kRepParallel:
      return std::min<unsigned>(w.spec.threads, w.spec.reps);
    case Shape::kIntraRep:
      return std::min(w.spec.threads, w.spec.shards);
    case Shape::kRuntime:
      return 1;  // reps run in order; the executor owns its workers
  }
  return 1;
}

namespace {

/// The SimConfig the Engine derives for the benchmark's cycle-driver
/// workloads (no adversary, combine, drift, service or partition).
experiment::SimConfig sim_config_of(const ScenarioSpec& spec,
                                    std::uint64_t seed) {
  experiment::SimConfig cfg;
  cfg.nodes = spec.nodes;
  cfg.cycles = spec.cycles;
  cfg.instances = spec.instances;
  cfg.topology = spec.topology;
  cfg.comm = failure::CommFailureModel(spec.comm.link_failure,
                                       spec.comm.message_loss);
  cfg.match_rounds = spec.match_rounds;
  cfg.stream_seed = seed;
  return cfg;
}

/// The Engine's init for the benchmark's workloads: COUNT leaders, the
/// AVERAGE peak, or AVERAGE uniform in [0, 2) drawn in node-id order
/// from the seed ^ kEngineInitValues stream.
template <typename Sim>
void init_workload(Sim& sim, const ScenarioSpec& spec, std::uint64_t seed) {
  if (spec.aggregate == AggregateKind::kCount) {
    sim.init_count_leaders();
  } else if (spec.init == experiment::InitKind::kPeak) {
    sim.init_peak(static_cast<double>(spec.nodes));
  } else {
    GOSSIP_REQUIRE(spec.init == experiment::InitKind::kUniform,
                   "the benchmark replays peak or uniform AVERAGE only");
    Rng values(seed ^ salt::kEngineInitValues);
    sim.init_scalar([&](NodeId) { return values.uniform(0.0, 2.0); });
  }
}

template <typename Sim>
RunResult finish(const Sim& sim, const ScenarioSpec& spec) {
  RunResult out;
  out.per_cycle = sim.cycle_stats();
  out.tracker = sim.tracker();
  if (spec.aggregate == AggregateKind::kCount) {
    const auto sizes = sim.size_estimates();
    out.sizes = stats::summarize(sizes);
    out.participants = static_cast<std::uint32_t>(sizes.size());
  } else {
    out.participants =
        static_cast<std::uint32_t>(out.per_cycle.back().count());
  }
  return out;
}

RunResult replay_cycle(const Workload& w, std::uint64_t seed, Tracer* tracer,
                       std::uint32_t rep_span) {
  const ScenarioSpec& spec = w.spec;
  std::unique_ptr<experiment::CycleSimulation> sim;
  std::unique_ptr<failure::FailurePlan> plan;
  {
    ScopedSpan span(tracer, "experiment.setup", rep_span);
    sim = std::make_unique<experiment::CycleSimulation>(
        sim_config_of(spec, seed), Rng(seed));
    init_workload(*sim, spec, seed);
    plan = spec.failure.build(spec.nodes);
  }
  {
    ScopedSpan span(tracer, "experiment.run", rep_span);
    sim->run(*plan);
  }
  ScopedSpan span(tracer, "experiment.finish", rep_span);
  return finish(*sim, spec);
}

RunResult replay_intra(const Workload& w, std::uint64_t seed,
                       ParallelRunner& pool, Tracer* tracer,
                       std::uint32_t rep_span,
                       experiment::IntraRepPhaseProfile* profile) {
  const ScenarioSpec& spec = w.spec;
  std::unique_ptr<experiment::IntraRepSimulation> sim;
  std::unique_ptr<failure::FailurePlan> plan;
  {
    ScopedSpan span(tracer, "experiment.setup", rep_span);
    sim = std::make_unique<experiment::IntraRepSimulation>(
        sim_config_of(spec, seed), seed, spec.shards);
    init_workload(*sim, spec, seed);
    plan = spec.failure.build(spec.nodes);
  }
  {
    ScopedSpan span(tracer, "experiment.run", rep_span);
    sim->set_phase_profile(profile);
    sim->run(*plan, pool);
  }
  ScopedSpan span(tracer, "experiment.finish", rep_span);
  return finish(*sim, spec);
}

/// The Engine's loopback runtime repetition for the benchmark's shape:
/// peak AVERAGE over NEWSCAST, zero loss, no latency, no churn.
RunResult replay_runtime(const Workload& w, std::uint64_t seed,
                         Tracer* tracer, std::uint32_t rep_span) {
  const ScenarioSpec& spec = w.spec;
  GOSSIP_REQUIRE(spec.topology.kind == experiment::TopologyKind::kNewscast &&
                     spec.init == experiment::InitKind::kPeak,
                 "the benchmark replays the peak NEWSCAST runtime only");
  std::unique_ptr<runtime::LoopbackTransport> transport;
  std::unique_ptr<runtime::Executor> executor;
  std::unique_ptr<failure::FailurePlan> plan;
  {
    ScopedSpan span(tracer, "experiment.setup", rep_span);
    runtime::ExecutorConfig cfg;
    cfg.nodes = spec.nodes;
    cfg.local_lo = 0;
    cfg.local_hi = spec.nodes;
    cfg.cycles = spec.cycles;
    cfg.workers = spec.runtime.workers;
    cfg.wheel_slots = spec.runtime.wheel_slots;
    cfg.delta_us = spec.runtime.delta_us;
    cfg.cycle_timeout = std::chrono::milliseconds(spec.runtime.timeout_ms);
    cfg.seed = seed;
    cfg.initial.assign(spec.nodes, 0.0);
    cfg.initial[0] = static_cast<double>(spec.nodes);
    cfg.overlay = runtime::OverlayMode::kNewscast;
    cfg.cache_size = static_cast<std::uint32_t>(spec.topology.cache_size);
    runtime::FaultConfig faults;
    faults.p_loss = spec.comm.message_loss;
    std::uint64_t fault_seed = seed;
    faults.seed = splitmix64(fault_seed) ^ salt::kEngineFaults;
    transport = std::make_unique<runtime::LoopbackTransport>(faults);
    executor = std::make_unique<runtime::Executor>(std::move(cfg), *transport);
    plan = spec.failure.build(spec.nodes);
  }
  runtime::ExecutorResult result;
  {
    ScopedSpan span(tracer, "experiment.run", rep_span);
    result = executor->run(*plan);
  }
  ScopedSpan span(tracer, "experiment.finish", rep_span);
  RunResult out;
  out.per_cycle = result.per_cycle;
  for (const auto& rs : out.per_cycle) out.tracker.record(rs.variance());
  out.sizes = stats::summarize(result.final_estimates);
  out.participants = result.participants;
  out.elapsed_seconds = result.elapsed_seconds;
  out.runtime_enabled = true;
  out.runtime_counters = result.counters;
  out.runtime_sum_initial = result.sum_initial;
  out.runtime_sum_final = result.sum_final;
  return out;
}

RunResult replay_rep(const Workload& w, std::uint32_t rep,
                     ParallelRunner& pool, Tracer* tracer,
                     std::uint32_t parent,
                     experiment::IntraRepPhaseProfile* profile) {
  ScopedSpan span(tracer, "rep", parent);
  const std::uint64_t seed = rep_seed_of(w, rep);
  switch (w.shape) {
    case Shape::kRepParallel: return replay_cycle(w, seed, tracer, span.id());
    case Shape::kIntraRep:
      return replay_intra(w, seed, pool, tracer, span.id(), profile);
    case Shape::kRuntime: return replay_runtime(w, seed, tracer, span.id());
  }
  return {};
}

}  // namespace

std::vector<RunResult> replay_point(const Workload& w, ParallelRunner& pool,
                                    Tracer* tracer, std::uint32_t parent,
                                    experiment::IntraRepPhaseProfile* profile) {
  if (w.shape == Shape::kRepParallel) {
    return pool.map(w.spec.reps, [&](std::size_t rep) {
      return replay_rep(w, static_cast<std::uint32_t>(rep), pool, tracer,
                        parent, nullptr);
    });
  }
  std::vector<RunResult> out;
  for (std::uint32_t rep = 0; rep < w.spec.reps; ++rep) {
    out.push_back(replay_rep(w, rep, pool, tracer, parent, profile));
  }
  return out;
}

double intra_run_seconds(const Workload& w, unsigned threads,
                         std::uint32_t cycles) {
  GOSSIP_REQUIRE(w.shape == Shape::kIntraRep, "not an intra-rep workload");
  ScenarioSpec spec = w.spec;
  spec.cycles = cycles;
  const std::uint64_t seed = rep_seed_of(w, 0);
  experiment::IntraRepSimulation sim(sim_config_of(spec, seed), seed,
                                     spec.shards);
  init_workload(sim, spec, seed);
  const auto plan = spec.failure.build(spec.nodes);
  ParallelRunner pool(threads);
  experiment::IntraRepPhaseProfile profile;
  sim.set_phase_profile(&profile);
  sim.run(*plan, pool);
  return profile.total_seconds;
}

std::uint64_t variance_digest(const std::vector<RunResult>& reps) {
  std::uint64_t h = experiment::kFnvOffsetBasis;
  for (const RunResult& r : reps) {
    for (const double v : r.tracker.variances()) {
      auto bits = std::bit_cast<std::uint64_t>(v);
      for (int b = 0; b < 8; ++b) {
        h ^= bits & 0xffU;
        h *= experiment::kFnvPrime;
        bits >>= 8;
      }
    }
  }
  return h;
}

}  // namespace gossip::bench
