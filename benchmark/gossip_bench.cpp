// gossip_bench: runs one benchmark workload and prints one JSON object.
//
//   gossip_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//                [--trace-dir DIR] [--smoke]
//
// Untraced (the default): every trial runs the workload's repetitions
// through the Engine facade (the gossip_run path) and the end-to-end
// metrics are medians over trials. A run lasts about --seconds: set-up
// probes or a warm-up trial first, then trials while one more fits in
// the budget (at least three).
//
// Traced: untraced trials alternate with trials that replay the same
// repetitions layer by layer (workloads.hpp) inside spans, for most of
// the budget, then kernel probes run on the workload's shape. The
// per-layer metrics come from those spans and probes; DIR receives
// <workload>.spans.jsonl and <workload>.selftime.json.
//
// Every repetition is checked (mean preserved, runtime sum conserved,
// convergence factor in its band, COUNT estimate near N); the JSON says
// which checks failed, and the exit code is 1 if any did.
//
// --smoke shrinks every workload to N=2000 and runs one trial, so tests
// can exercise the whole surface in seconds; its numbers mean nothing.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "experiment/engine.hpp"
#include "experiment/spec.hpp"
#include "probes.hpp"
#include "stats/summary.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef GOSSIP_BENCH_BUILD_TYPE
#define GOSSIP_BENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define GOSSIP_BENCH_COMPILER "clang " __clang_version__
#else
#define GOSSIP_BENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

using namespace gossip;
using namespace gossip::bench;
using experiment::AggregateKind;
using experiment::RunResult;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Measured by the traced run only. A layer the workload never runs
/// reports 0 for its run-derived counts and ratios; probes always run.
constexpr MetricDef kPerLayer[] = {
    {"experiment.setup_s", "s"},
    {"experiment.run_s", "s"},
    {"experiment.finish_s", "s"},
    {"experiment.rep_utilization", "ratio"},
    {"experiment.intra_rep.serial_fraction", "ratio"},
    {"experiment.intra_rep.run_speedup_4t", "ratio"},
    {"membership.bootstrap_s", "s"},
    {"membership.run_cycle_ms", "ms"},
    {"membership.exchange_ns", "ns"},
    {"membership.add_node_ns", "ns"},
    {"membership.cache_merge_ns", "ns"},
    {"core.lane_average_ns", "ns"},
    {"core.lane_bytes_per_exchange", "B"},
    {"stats.record_ns_per_value", "ns"},
    {"proto.encode_ns.news_push", "ns"},
    {"proto.encode_ns.agg_push", "ns"},
    {"proto.decode_ns.news_push", "ns"},
    {"proto.decode_ns.agg_push", "ns"},
    {"proto.encoded_bytes.news_push", "B"},
    {"proto.encoded_bytes.agg_push", "B"},
    {"runtime.transport_send_ns", "ns"},
    {"runtime.exchanges_per_s", "1/s"},
    {"runtime.bytes_per_exchange", "B"},
    {"runtime.messages_per_exchange", "count"},
    {"runtime.busy_nack_ratio", "ratio"},
    {"runtime.timeouts", "count"},
    {"runtime.late_replies", "count"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = experiment::parse_u64_field("--seed", value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// CPUs this process may run on (what `nproc` prints).
unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(const std::vector<double>& v) {
  return stats::summarize(v).median;
}

// ---- correctness ---------------------------------------------------------

/// Convergence-factor band for a workload's engine, around the §3
/// prediction 1/(2√e) ≈ 0.30 for the serial driver; the matched intra-rep
/// model and the busy-NACKing runtime converge more slowly per cycle.
std::pair<double, double> factor_band(Shape shape) {
  switch (shape) {
    case Shape::kRepParallel: return {0.25, 0.40};
    case Shape::kIntraRep: return {0.45, 0.65};
    case Shape::kRuntime: return {0.40, 0.70};
  }
  return {0.0, 1.0};
}

/// Named check → repetitions that failed it.
using CheckCounts = std::map<std::string, std::uint64_t>;

/// Checks one repetition's invariants; returns false (and counts why) if
/// any fails.
bool check_rep(const Workload& w, const RunResult& r, CheckCounts& failed) {
  bool ok = true;
  const auto fail = [&](const char* name) {
    ++failed[name];
    ok = false;
  };
  // Every check is registered so the report lists the passing ones too.
  if (w.spec.aggregate == AggregateKind::kCount) {
    failed.try_emplace("count_estimate_within_5pct", 0);
    const double n = w.spec.nodes;
    if (!(std::fabs(r.sizes.median - n) <= 0.05 * n)) {
      fail("count_estimate_within_5pct");
    }
  } else if (r.runtime_enabled) {
    failed.try_emplace("runtime_sum_conserved", 0);
    failed.try_emplace("runtime_no_timeouts", 0);
    const double s0 = r.runtime_sum_initial;
    if (!(std::fabs(r.runtime_sum_final - s0) <= 1e-12 * std::fabs(s0))) {
      fail("runtime_sum_conserved");
    }
    if (r.runtime_counters.timeouts != 0) fail("runtime_no_timeouts");
  } else {
    failed.try_emplace("mean_preserved", 0);
    const double m0 = r.per_cycle.front().mean();
    const double m1 = r.per_cycle.back().mean();
    if (!(std::fabs(m1 - m0) <= 1e-9 * std::fabs(m0))) fail("mean_preserved");
  }
  return ok;
}

// ---- one trial -------------------------------------------------------------

struct Trial {
  double wall_s = 0.0;
  std::vector<RunResult> reps;
};

Trial run_engine_trial(const Workload& w, experiment::Engine& engine) {
  const auto t0 = Clock::now();
  Trial t;
  t.reps = engine.run_point(w.spec, 0);
  t.wall_s = seconds_since(t0);
  return t;
}

double run_seconds_total(const std::vector<RunResult>& reps) {
  double s = 0.0;
  for (const RunResult& r : reps) s += r.elapsed_seconds;
  return s;
}

/// Median over reps of the mean per-cycle variance factor. A median, not
/// a geometric mean: under churn a COUNT rep's tracked lane reads 0 when
/// its leader crashes before the first exchange (about 1 rep in 100).
double convergence_factor(const Workload& w,
                          const std::vector<RunResult>& reps) {
  std::vector<double> factors;
  for (const RunResult& r : reps) {
    factors.push_back(r.tracker.mean_factor(w.spec.cycles));
  }
  return median(factors);
}

// ---- output ----------------------------------------------------------------

struct Report {
  json::Object metrics;
  CheckCounts failed_checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> digests;  // one per checked result set
  bool deterministic = true;           // simulators: digests must agree

  /// Checks one trial's reps. The factor band applies to the trial's
  /// aggregate factor (one COUNT lane or one runtime rep strays outside
  /// it by chance); when it fails, every rep of the trial counts failed.
  void check_all(const Workload& w, const std::vector<RunResult>& reps) {
    const auto [lo, hi] = factor_band(w.shape);
    const double factor = convergence_factor(w, reps);
    const bool in_band = factor >= lo && factor <= hi;
    failed_checks["convergence_factor_in_band"] += in_band ? 0 : reps.size();
    for (const RunResult& r : reps) {
      ++attempted;
      if (!check_rep(w, r, failed_checks) || !in_band) ++failed;
    }
    if (deterministic) digests.push_back(variance_digest(reps));
  }
};

void put_sampled(json::Object& metrics, const char* name, const char* unit,
                 const std::vector<double>& samples) {
  const stats::Summary s = stats::summarize(samples);
  metrics.emplace_back(name, json::Object{{"value", s.median},
                                          {"unit", unit},
                                          {"min", s.min},
                                          {"max", s.max},
                                          {"n", samples.size()}});
}

// ---- the two modes -----------------------------------------------------------

/// Per-rep set-up of a rep-parallel workload, which its batched trials
/// hide. Probed the way the trials run it: one-cycle repetitions,
/// pool_threads(w) at a time, each on an Engine of its own, wall time
/// minus the elapsed_seconds they report. Batches repeat for `seconds`
/// (at least `min_batches`) and warm the allocator and caches.
std::vector<double> probe_rep_setup(const Workload& w, double seconds,
                                    int min_batches) {
  experiment::ScenarioSpec probe = w.spec;
  probe.cycles = 1;
  experiment::ParallelRunner pool(pool_threads(w));
  const std::size_t batch = pool.threads();
  std::vector<double> setup;
  const auto start = Clock::now();
  for (int b = 0; b < min_batches || seconds_since(start) < seconds; ++b) {
    const std::vector<double> got = pool.map(batch, [&](std::size_t i) {
      const auto rep =
          static_cast<std::uint32_t>((b * batch + i) % w.spec.reps);
      experiment::Engine engine;
      const auto t0 = Clock::now();
      const RunResult r = engine.run_single(probe, rep_seed_of(w, rep));
      return seconds_since(t0) - r.elapsed_seconds;
    });
    setup.insert(setup.end(), got.begin(), got.end());
  }
  return setup;
}

void run_untraced(const Workload& w, const Args& args, Report& report) {
  const auto start = Clock::now();
  experiment::Engine engine;
  std::vector<double> setup;
  if (w.shape == Shape::kRepParallel) {
    setup = probe_rep_setup(w, 0.15 * args.seconds, args.smoke ? 1 : 4);
  } else {
    // Warm-up: checked, not timed.
    report.check_all(w, run_engine_trial(w, engine).reps);
  }
  std::vector<double> ttr, throughput, factor;
  const std::size_t min_trials = args.smoke ? 1 : 3;
  // Another trial starts only if one as long as the last still fits.
  while (ttr.size() < min_trials ||
         seconds_since(start) + ttr.back() <= args.seconds) {
    const Trial t = run_engine_trial(w, engine);
    const double run_s = run_seconds_total(t.reps);
    ttr.push_back(t.wall_s);
    throughput.push_back(static_cast<double>(w.spec.nodes) * w.spec.cycles *
                         static_cast<double>(t.reps.size()) / run_s);
    factor.push_back(convergence_factor(w, t.reps));
    if (w.shape != Shape::kRepParallel) {
      // Sequential reps: the trial's wall outside the run loops is set-up.
      setup.push_back((t.wall_s - run_s) / static_cast<double>(t.reps.size()));
    }
    report.check_all(w, t.reps);
  }
  json::Object& m = report.metrics;
  put_sampled(m, "time_to_result_s", "s", ttr);
  put_sampled(m, "setup_s", "s", setup);
  put_sampled(m, "node_cycles_per_s", "1/s", throughput);
  put_sampled(m, "convergence_factor", "ratio", factor);
  put_sampled(m, "peak_rss_mb", "MiB", {peak_rss_mib()});
}

void run_traced(const Workload& w, const Args& args, Report& report) {
  experiment::Engine engine;
  experiment::ParallelRunner pool(pool_threads(w));
  Tracer tracer;
  std::vector<double> untraced_s, traced_s, utilization, serial_fraction,
      intra_run_s;
  runtime::RuntimeCounters counters;
  double runtime_run_s = 0.0;
  const unsigned rep_lanes =
      w.shape == Shape::kRepParallel ? pool_threads(w) : 1;

  const auto untraced_trial = [&] {
    const Trial u = run_engine_trial(w, engine);
    untraced_s.push_back(u.wall_s);
    report.check_all(w, u.reps);
  };
  // Pairs take most of the budget; the probes after them the rest.
  const auto start = Clock::now();
  const std::size_t min_pairs = args.smoke ? 1 : 2;
  while (traced_s.size() < min_pairs ||
         seconds_since(start) + untraced_s.back() + traced_s.back() <=
             0.7 * args.seconds) {
    // Alternate which side of the pair runs first.
    const bool untraced_first = traced_s.size() % 2 == 0;
    if (untraced_first) untraced_trial();

    experiment::IntraRepPhaseProfile profile;
    const auto t0 = Clock::now();
    std::vector<RunResult> reps;
    std::uint32_t trial_span = 0;
    {
      ScopedSpan span(&tracer, "trial", kNoSpan);
      trial_span = span.id();
      reps = replay_point(w, pool, &tracer, trial_span, &profile);
    }
    traced_s.push_back(seconds_since(t0));
    report.check_all(w, reps);

    double busy = 0.0;
    for (const Span& s : tracer.spans()) {
      if (s.parent == trial_span && s.name == "rep") busy += s.seconds();
    }
    utilization.push_back(busy / (rep_lanes * traced_s.back()));
    if (w.shape == Shape::kIntraRep) {
      serial_fraction.push_back(profile.serial_fraction());
      intra_run_s.push_back(profile.total_seconds);
    }
    for (const RunResult& r : reps) {
      counters.add(r.runtime_counters);
      runtime_run_s += r.elapsed_seconds;
    }
    if (!untraced_first) untraced_trial();
  }

  std::map<std::string, double> layer;
  {
    ScopedSpan probes(&tracer, "probes", kNoSpan);
    layer = run_probes({w.spec.nodes,
                        static_cast<std::uint32_t>(w.spec.topology.cache_size),
                        w.spec.instances},
                       w.spec.seed, tracer, probes.id());
    layer["experiment.intra_rep.serial_fraction"] = 0.0;
    layer["experiment.intra_rep.run_speedup_4t"] = 0.0;
    if (w.shape == Shape::kIntraRep) {
      // Per-cycle run time on one thread against the traced trials' run
      // on the workload's threads (same shards, so the same work).
      ScopedSpan span(&tracer, "probe.experiment.intra_rep_1t", probes.id());
      const std::uint32_t cycles = std::min<std::uint32_t>(3, w.spec.cycles);
      const double one_thread_s = intra_run_seconds(w, 1, cycles) / cycles;
      layer["experiment.intra_rep.serial_fraction"] = median(serial_fraction);
      layer["experiment.intra_rep.run_speedup_4t"] =
          one_thread_s / (median(intra_run_s) / w.spec.cycles);
    }
  }

  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, std::vector<double>> phase_self;
  for (const Span& s : spans) {
    if (s.name.rfind("experiment.", 0) == 0) {
      phase_self[s.name].push_back(self[s.id]);
    }
  }
  layer["experiment.setup_s"] = median(phase_self["experiment.setup"]);
  layer["experiment.run_s"] = median(phase_self["experiment.run"]);
  layer["experiment.finish_s"] = median(phase_self["experiment.finish"]);
  layer["experiment.rep_utilization"] = median(utilization);

  const auto per_exchange = [&](std::uint64_t count) {
    return counters.exchanges_completed == 0
               ? 0.0
               : static_cast<double>(count) /
                     static_cast<double>(counters.exchanges_completed);
  };
  layer["runtime.exchanges_per_s"] =
      runtime_run_s > 0.0 && w.shape == Shape::kRuntime
          ? static_cast<double>(counters.exchanges_completed) / runtime_run_s
          : 0.0;
  layer["runtime.bytes_per_exchange"] = per_exchange(counters.bytes_encoded);
  layer["runtime.messages_per_exchange"] =
      per_exchange(counters.messages_sent);
  layer["runtime.busy_nack_ratio"] =
      counters.pushes_sent == 0
          ? 0.0
          : static_cast<double>(counters.busy_nacks) /
                static_cast<double>(counters.pushes_sent);
  layer["runtime.timeouts"] = static_cast<double>(counters.timeouts);
  layer["runtime.late_replies"] = static_cast<double>(counters.late_replies);
  // Per-pair ratios cancel drift in machine speed between pairs.
  std::vector<double> pair_ratios;
  for (std::size_t i = 0; i < traced_s.size(); ++i) {
    pair_ratios.push_back(traced_s[i] / untraced_s[i]);
  }
  layer["trace.overhead_ratio"] = median(pair_ratios) - 1.0;

  for (const MetricDef& def : kPerLayer) {
    report.metrics.emplace_back(
        def.name,
        json::Object{{"value", layer.at(def.name)}, {"unit", def.unit}});
  }

  const std::string base = args.trace_dir + "/" + w.name;
  if (!write_spans_jsonl(base + ".spans.jsonl", spans)) {
    throw std::runtime_error("cannot write " + base + ".spans.jsonl");
  }
  json::Object summary;
  for (const auto& [name, row] : self_time_summary(spans)) {
    summary.emplace_back(name, json::Object{{"count", row.count},
                                            {"total_s", row.total_s},
                                            {"self_s", row.self_s}});
  }
  std::ofstream out(base + ".selftime.json");
  out << json::Value(summary).dump(2) << '\n';
  if (!out) throw std::runtime_error("cannot write " + base + ".selftime.json");
}

int run(const Args& args) {
  const unsigned nproc = available_cpus();
  const unsigned threads = std::min(4u, nproc);
  Workload w = make_workload(args.workload, args.seed, threads);
  if (args.smoke) w = shrunk(w);
  Report report;
  report.deterministic = w.shape != Shape::kRuntime;
  if (args.trace) {
    run_traced(w, args, report);
  } else {
    run_untraced(w, args, report);
  }

  json::Array checks;
  bool correct = report.failed == 0;
  for (const auto& [name, count] : report.failed_checks) {
    checks.push_back(json::Object{{"name", name}, {"failed_reps", count}});
  }
  if (report.deterministic) {
    const bool same = std::all_of(
        report.digests.begin(), report.digests.end(),
        [&](std::uint64_t d) { return d == report.digests.front(); });
    checks.push_back(json::Object{{"name", "digest_identical_across_trials"},
                                  {"failed_reps", same ? 0 : 1}});
    correct = correct && same;
  }
  json::Object out{
      {"workload", w.name},
      {"seed", args.seed},
      {"trace", args.trace},
      {"spec_hash", experiment::spec_hash_hex(w.spec)},
      {"nproc", nproc},
      {"threads", threads},
      {"compiler", GOSSIP_BENCH_COMPILER},
      {"build_type", GOSSIP_BENCH_BUILD_TYPE},
      {"correct", correct},
      {"attempted", report.attempted},
      {"failed", report.failed},
      {"digest", report.deterministic
                     ? json::Value(experiment::hex64(report.digests.front()))
                     : json::Value()},
      {"checks", checks},
      {"metrics", report.metrics},
  };
  std::cout << json::Value(out).dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "gossip_bench: " << e.what() << '\n';
    return 2;
  }
}
