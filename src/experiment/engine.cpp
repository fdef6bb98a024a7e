#include "experiment/engine.hpp"

#include <algorithm>
#include <chrono>

#include "common/stream_salt.hpp"
#include "experiment/cycle_sim.hpp"
#include "experiment/intra_rep.hpp"
#include "experiment/push_sum.hpp"
#include "proto/world.hpp"
#include "runtime/executor.hpp"
#include "runtime/transport.hpp"

namespace gossip::experiment {

std::uint64_t rep_seed(std::uint64_t base, std::uint64_t point,
                       std::uint64_t rep) {
  // One splitmix64 walk keyed by (base, point, rep); avoids accidental
  // stream sharing between sweep points. Unchanged from the pre-facade
  // layer: every published series depends on these exact seeds.
  std::uint64_t s = base ^ (point * salt::kMulSweepPoint) ^
                    (rep * salt::kMulSweepRep);
  return splitmix64(s);
}

namespace {

/// Auto mode only considers the intra-rep engine for runs at least this
/// large — a single smaller repetition is faster serial than sharded.
constexpr std::uint32_t kIntraRepAutoThreshold = 500'000;

SimConfig sim_config_of(const ScenarioSpec& spec,
                        const failure::FailurePlan& plan) {
  SimConfig cfg;
  cfg.nodes = spec.nodes;
  cfg.cycles = spec.cycles;
  cfg.instances = spec.instances;
  cfg.topology = spec.topology;
  cfg.comm = failure::CommFailureModel(spec.comm.link_failure,
                                       spec.comm.message_loss);
  cfg.match_rounds = spec.match_rounds;
  cfg.adversary = spec.adversary;
  cfg.combine = spec.combine;
  if (spec.failure.kind == FailureSpec::Kind::kPartition) {
    // The partition failure kind builds as NoFailures; its semantics live
    // in the drivers' exchange filter.
    cfg.partition = {spec.failure.cycle, spec.failure.duration,
                     spec.failure.components};
  }
  cfg.epoch_restarts = spec.failure.kind == FailureSpec::Kind::kRestart;
  cfg.total_joins = plan.total_joins(spec.cycles);
  cfg.drift = spec.drift;
  cfg.service = spec.service;
  return cfg;
}

/// The per-node initial values of a scalar workload, in node-id order:
/// the peak puts N on node 0; the other distributions draw from the
/// seed ^ kEngineInitValues stream (the historical scheme of the
/// initial-distribution ablation). Every driver starts from this vector,
/// so the runtime_vs_sim cross-check compares runs that start
/// bit-identically.
std::vector<double> initial_values(const ScenarioSpec& spec,
                                   std::uint64_t seed) {
  std::vector<double> initial(spec.nodes, 0.0);
  Rng values_rng(seed ^ salt::kEngineInitValues);
  for (std::uint32_t u = 0; u < spec.nodes; ++u) {
    switch (spec.init) {
      case InitKind::kPeak:
        initial[u] = u == 0 ? static_cast<double>(spec.nodes) : 0.0;
        break;
      case InitKind::kUniform: initial[u] = values_rng.uniform(0.0, 2.0); break;
      case InitKind::kBimodal: initial[u] = u % 2 == 0 ? 0.0 : 2.0; break;
      case InitKind::kExponential:
        initial[u] = values_rng.exponential(1.0);
        break;
    }
  }
  return initial;
}

/// Scalar initialization from initial_values (push-sum and both cycle
/// drivers expose the same init_scalar).
template <typename Sim>
void init_values(Sim& sim, const ScenarioSpec& spec, std::uint64_t seed) {
  const std::vector<double> initial = initial_values(spec, seed);
  sim.init_scalar([&initial](NodeId id) { return initial[id.value()]; });
}

/// Workload init shared by the serial and intra-rep cycle drivers.
void init_workload(SimulationCore& sim, const ScenarioSpec& spec,
                   std::uint64_t seed) {
  if (spec.aggregate == AggregateKind::kCount) {
    sim.init_count_leaders();
  } else {
    init_values(sim, spec, seed);
  }
}

/// Result shaping shared by both cycle drivers: per-cycle stats +
/// tracker always; COUNT additionally summarizes the robust size
/// estimates and counts participants off them.
RunResult finish_run(const SimulationCore& sim, const ScenarioSpec& spec) {
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
  // The continuous-service surface is identical on both cycle drivers;
  // every field is empty/zero unless drift or the pipeline ran.
  out.tracking_error = sim.tracking_error();
  out.staleness = sim.staleness_samples();
  out.served_error = sim.served_error();
  out.epochs_published = sim.snapshots().published();
  return out;
}

/// One cycle-driver repetition on the serial or the intra-rep engine,
/// which differ only in the simulation built and how it runs. `pool` is
/// the intra-rep engine's.
RunResult exec_cycle(const ScenarioSpec& spec, std::uint64_t seed,
                     const failure::FailurePlan& plan,
                     const ResolvedEngine& resolved, ParallelRunner* pool) {
  SimConfig cfg = sim_config_of(spec, plan);
  cfg.stream_seed = seed;  // the engine-invariant drift stream key
  const auto timed = [&spec, seed](SimulationCore& sim, const auto& run) {
    init_workload(sim, spec, seed);
    const auto start = std::chrono::steady_clock::now();
    run();
    RunResult out = finish_run(sim, spec);
    out.elapsed_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    return out;
  };
  if (resolved.kind != EngineKind::kIntraRep) {
    CycleSimulation sim(cfg, Rng(seed));
    return timed(sim, [&] { sim.run(plan); });
  }
  // The pool idles until run(), so the bootstrap borrows it first.
  const overlay::ParallelFor bootstrap =
      [pool](std::size_t count,
             const std::function<void(std::size_t)>& job) {
        pool->run(count, job);
      };
  IntraRepSimulation sim(cfg, seed, resolved.shards, &bootstrap);
  return timed(sim, [&] { sim.run(plan, *pool); });
}

RunResult exec_event(const ScenarioSpec& spec, std::uint64_t seed) {
  proto::WorldConfig cfg;
  cfg.nodes = spec.nodes;
  cfg.seed = seed;
  cfg.p_loss = spec.comm.message_loss;
  // One epoch, as on every other driver. Each node's γ-th cycle starts
  // inside the run window (its phase is below δ), so γ = cycles would
  // still restart every node; cycles + 1 is the smallest that does not.
  cfg.protocol.cycles_per_epoch = spec.cycles + 1;
  cfg.protocol.atomic_exchanges = spec.atomic_exchanges;
  cfg.initial_value = [initial = initial_values(spec, seed)](NodeId id) {
    return initial[id.value()];
  };
  proto::World world(cfg);
  world.start();

  RunResult out;
  const auto record = [&world, &out] {
    stats::RunningStats s;
    for (const double e : world.estimates()) s.add(e);
    out.per_cycle.push_back(s);
    out.tracker.record(s.variance());
  };
  record();
  for (std::uint32_t c = 0; c < spec.cycles; ++c) {
    world.run_cycles(1);
    record();
  }
  const auto estimates = world.estimates();
  out.sizes = stats::summarize(estimates);
  out.participants = static_cast<std::uint32_t>(estimates.size());
  return out;
}

RunResult exec_push_sum(const ScenarioSpec& spec, std::uint64_t seed) {
  PushSumConfig cfg;
  cfg.nodes = spec.nodes;
  cfg.cycles = spec.cycles;
  cfg.topology = spec.topology;
  cfg.p_message_loss = spec.comm.message_loss;
  PushSumSimulation sim(cfg, Rng(seed));
  init_values(sim, spec, seed);
  sim.run();

  RunResult out;
  out.per_cycle = sim.cycle_stats();
  out.tracker = sim.tracker();
  const auto estimates = sim.estimates();
  out.sizes = stats::summarize(estimates);
  out.participants = static_cast<std::uint32_t>(estimates.size());
  return out;
}

RunResult exec_runtime(const ScenarioSpec& spec, std::uint64_t seed,
                       const failure::FailurePlan& plan, unsigned threads) {
  const RuntimeSpec& rt = spec.runtime;
  runtime::ExecutorConfig cfg;
  cfg.nodes = spec.nodes;
  cfg.cycles = spec.cycles;
  cfg.workers = rt.workers != 0 ? rt.workers : threads;
  cfg.wheel_slots = rt.wheel_slots;
  cfg.delta_us = rt.delta_us;
  cfg.cycle_timeout = std::chrono::milliseconds(rt.timeout_ms);
  cfg.seed = seed;
  cfg.initial = initial_values(spec, seed);

  // The overlay must be identical in every cooperating process, so the
  // static graphs are a pure function of the repetition seed alone. The
  // executor keeps its own NEWSCAST caches and gossips them over the
  // wire, so only the graph half of the overlay is built here.
  Rng graph_rng(seed ^ salt::kEngineGraph);
  const overlay::Graph graph =
      build_graph(spec.topology, spec.nodes, graph_rng);
  if (graph.node_count() > 0) {
    cfg.overlay = runtime::OverlayMode::kStatic;
    cfg.graph = &graph;
  } else if (spec.topology.kind == TopologyKind::kNewscast) {
    cfg.overlay = runtime::OverlayMode::kNewscast;
    cfg.cache_size = static_cast<std::uint32_t>(spec.topology.cache_size);
  } else {
    cfg.overlay = runtime::OverlayMode::kComplete;
  }

  if (spec.drift.enabled()) {
    // Same engine-invariant (stream_seed, cycle, node) stream as both
    // simulators: the runtime's nodes drift bit-identically to theirs.
    const DriftSpec drift = spec.drift;
    cfg.drift = [drift, seed](std::uint32_t cycle, std::uint32_t node) {
      return drift_delta(drift, seed, cycle, node);
    };
  }

  runtime::FaultConfig faults;
  faults.p_loss = spec.comm.message_loss;
  faults.seed = splitmix64(seed) ^ salt::kEngineFaults;
  faults.latency = {rt.latency, rt.delay_lo_us, rt.delay_hi_us};

  std::unique_ptr<runtime::Transport> transport;
  if (rt.transport == RuntimeSpec::TransportKind::kLoopback) {
    cfg.local_lo = 0;
    cfg.local_hi = spec.nodes;
    transport = std::make_unique<runtime::LoopbackTransport>(faults);
  } else {
    runtime::ProcessPartition partition{spec.nodes, rt.processes};
    cfg.local_lo = partition.lo(rt.process_index);
    cfg.local_hi = partition.hi(rt.process_index);
    runtime::SocketConfig sock;
    sock.nodes = spec.nodes;
    sock.processes = rt.processes;
    sock.process_index = rt.process_index;
    sock.port_base = static_cast<std::uint16_t>(rt.port_base);
    transport = std::make_unique<runtime::SocketTransport>(faults, sock);
  }

  runtime::Executor executor(std::move(cfg), *transport);
  const runtime::ExecutorResult result = executor.run(plan);

  RunResult out;
  out.per_cycle = result.per_cycle;
  for (const auto& rs : out.per_cycle) out.tracker.record(rs.variance());
  out.sizes = stats::summarize(result.final_estimates);
  out.participants = result.participants;
  out.tracking_error = result.tracking_error;
  out.elapsed_seconds = result.elapsed_seconds;
  out.runtime_enabled = true;
  out.runtime_counters = result.counters;
  out.runtime_sum_initial = result.sum_initial;
  out.runtime_sum_final = result.sum_final;
  return out;
}

/// One repetition of `spec` on the resolved engine: the one
/// per-repetition dispatch. `plan_override`, when non-null, replaces the
/// spec's failure plan; `pool` is the intra-rep engine's (null on the
/// other engines).
RunResult exec(const ScenarioSpec& spec, std::uint64_t seed,
               const failure::FailurePlan* plan_override,
               const ResolvedEngine& resolved, ParallelRunner* pool) {
  switch (spec.driver) {
    case DriverKind::kEvent: return exec_event(spec, seed);
    case DriverKind::kPushSum: return exec_push_sum(spec, seed);
    case DriverKind::kRuntime:
    case DriverKind::kCycle: break;
  }
  const auto spec_plan = spec.failure.build(spec.nodes);
  const failure::FailurePlan& plan =
      plan_override != nullptr ? *plan_override : *spec_plan;
  if (spec.driver == DriverKind::kRuntime) {
    return exec_runtime(spec, seed, plan, resolved.threads);
  }
  return exec_cycle(spec, seed, plan, resolved, pool);
}

}  // namespace

void validate_as_run(ScenarioSpec spec, const ResolvedEngine& resolved) {
  spec.engine = resolved.kind;
  spec.threads = resolved.threads;
  validate(spec);
}

ResolvedEngine resolve_engine(const ScenarioSpec& spec,
                              const EngineOptions& options) {
  ResolvedEngine r;
  const unsigned spec_threads =
      options.threads != 0 ? options.threads : spec.threads;
  const unsigned spec_shards =
      options.shards != 0 ? options.shards : spec.shards;
  r.threads = spec_threads != 0 ? spec_threads : runner_threads();
  r.shards = spec_shards != 0 ? spec_shards : runner_threads();

  EngineKind kind =
      options.kind != EngineKind::kAuto ? options.kind : spec.engine;
  if (kind == EngineKind::kAuto) {
    if (spec.driver == DriverKind::kRuntime) {
      // The runtime's parallelism is the executor's own worker pool;
      // repetitions always run one after the other.
      kind = EngineKind::kSerial;
    } else if (spec.reps > 1) {
      kind = EngineKind::kRepParallel;
    } else if (spec.driver == DriverKind::kCycle &&
               spec.sweep.points.size() <= 1 &&
               spec.nodes >= kIntraRepAutoThreshold) {
      // Only single-point specs: a sweep series must stay engine-uniform
      // (intra_rep's matched-cycle trajectory is not comparable with the
      // serial driver's, so auto must never mix them within one series).
      kind = EngineKind::kIntraRep;
    } else {
      kind = EngineKind::kSerial;
    }
  }
  r.kind = kind;
  return r;
}

Engine::Engine(EngineOptions options) : options_(options) {}
Engine::~Engine() = default;

ParallelRunner& Engine::pool_for(unsigned threads, std::size_t max_jobs) {
  const unsigned effective = static_cast<unsigned>(std::min<std::uint64_t>(
      threads, std::max<std::uint64_t>(max_jobs, 1)));
  if (!pool_ || pool_threads_ != effective) {
    pool_ = std::make_unique<ParallelRunner>(effective);
    pool_threads_ = effective;
  }
  return *pool_;
}

ParallelRunner* Engine::intra_pool(const ResolvedEngine& re) {
  if (re.kind != EngineKind::kIntraRep) return nullptr;
  return &pool_for(re.threads, re.shards);
}

RunResult Engine::run_single(const ScenarioSpec& spec, std::uint64_t raw_seed,
                             const failure::FailurePlan* plan_override) {
  const ResolvedEngine re = resolve_engine(spec, options_);
  validate_as_run(spec, re);
  return exec(spec, raw_seed, plan_override, re, intra_pool(re));
}

std::vector<RunResult> Engine::run_point(const ScenarioSpec& spec,
                                         std::size_t index) {
  validate(spec);
  const ScenarioSpec point_spec = spec.at_point(index);
  const ResolvedEngine re = resolve_point(spec, index);
  validate_as_run(point_spec, re);
  const std::uint64_t point_id = spec.sweep.points[index].seed_point;

  if (ParallelRunner* pool = intra_pool(re)) {
    // The parallelism lives *inside* each repetition; reps run in order.
    std::vector<RunResult> out;
    out.reserve(spec.reps);
    for (std::uint32_t rep = 0; rep < spec.reps; ++rep) {
      out.push_back(exec(point_spec, rep_seed(spec.seed, point_id, rep),
                         nullptr, re, pool));
    }
    return out;
  }

  const unsigned threads = re.kind == EngineKind::kSerial ? 1 : re.threads;
  return pool_for(threads, spec.reps).map(spec.reps, [&](std::size_t rep) {
    return exec(point_spec, rep_seed(spec.seed, point_id, rep), nullptr, re,
                nullptr);
  });
}

ResolvedEngine Engine::resolve_point(const ScenarioSpec& spec,
                                     std::size_t index) const {
  // Resolve from the per-point spec (a nodes-sweep point must be judged
  // at its own size) but with the original sweep width visible, so
  // auto's single-point-only intra_rep rule keeps a multi-point series
  // engine-uniform — every point of a sweep resolves identically, and
  // the provenance block's engine matches what actually executed.
  ScenarioSpec probe = spec.at_point(index);
  probe.sweep = spec.sweep;
  return resolve_engine(probe, options_);
}

ScenarioResult Engine::run(const ScenarioSpec& spec) {
  validate(spec);
  ScenarioResult out;
  out.spec = spec;
  out.engine = resolve_point(spec, 0);
  out.points.reserve(spec.sweep.points.size());
  for (std::size_t i = 0; i < spec.sweep.points.size(); ++i) {
    out.points.push_back({spec.sweep.points[i], run_point(spec, i)});
  }
  return out;
}

}  // namespace gossip::experiment
