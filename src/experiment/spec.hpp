// The declarative experiment API: one ScenarioSpec describes everything
// the paper's §7 evaluation matrix varies — workload (AVERAGE / COUNT /
// related-work baselines), topology, failure plan, communication-failure
// model, sweep axis with points, epoch length, repetitions, seed and
// execution engine — as *data*, not code.
//
// A spec round-trips through JSON bit-exactly (parse ∘ serialize ∘ parse
// is the identity; doubles are printed with max_digits10), validates with
// precise one-line errors, and is what the Engine facade (engine.hpp),
// the scenario registry (registry.hpp) and the `gossip_run` CLI all
// speak. Every fig*/ablation_*/baseline_* experiment is a registered
// named spec; a new workload is a new spec value, not a new binary.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/cycle_sim.hpp"
#include "failure/comm_failure.hpp"
#include "failure/failure_plan.hpp"

namespace gossip::experiment {

/// Spec parse/validation error. The message is one line and names the
/// field precisely ("spec: failure.fraction must be in [0,1], got 1.5").
class SpecError : public std::runtime_error {
public:
  explicit SpecError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Which simulator executes the workload.
enum class DriverKind {
  kCycle,    ///< cycle-driven CycleSimulation / IntraRepSimulation (§7)
  kEvent,    ///< event-driven proto::World (atomicity ablation)
  kPushSum,  ///< push-sum baseline (Kempe et al., §8)
  kRuntime,  ///< deployment runtime: live nodes over a real Transport
};

/// The paper's two aggregate workloads.
enum class AggregateKind {
  kAverage,  ///< AVERAGE (fig. 2–5, 7): scalar estimates
  kCount,    ///< COUNT (fig. 6, 8): `instances` leader slots, size estimate
};

/// Initial value distribution for AVERAGE workloads.
enum class InitKind {
  kPeak,         ///< one node holds N, the rest 0 (the paper's worst case)
  kUniform,      ///< uniform in [0, 2)
  kBimodal,      ///< 0 / 2 by node-id parity
  kExponential,  ///< Exp(1)
};

/// Execution path selection; every kind is bit-deterministic in itself.
/// kSerial and kRepParallel are bit-identical to each other for any
/// thread count; kIntraRep is its own matched-cycle model (bit-identical
/// across any shards × threads, but not comparable with the serial
/// driver — see intra_rep.hpp).
enum class EngineKind {
  kAuto,         ///< reps > 1 → rep_parallel; one giant rep → intra_rep
  kSerial,       ///< one thread, the historical reference path
  kRepParallel,  ///< repetitions fan out across threads
  kIntraRep,     ///< one repetition, domain-decomposed across shards
};

/// Declarative node-failure plan (§6–§7), buildable into the concrete
/// failure::FailurePlan the drivers execute.
struct FailureSpec {
  enum class Kind {
    kNone,
    kProportionalCrash,  ///< P_f of current nodes per cycle (fig. 5)
    kSuddenDeath,        ///< `fraction` dies at once before `cycle` (fig. 6a)
    kChurn,              ///< `rate` crash + `rate` join per cycle (fig. 6b)
    kChurnFraction,      ///< churn with rate = ⌊nodes · fraction⌋
    kConstantCrash,      ///< `rate` crashes per cycle, no replacement
    kCorrelatedWaves,    ///< `waves` id-block kill waves from `cycle` on,
                         ///< each ⌊nodes · fraction⌋ ids wide
    kPartition,          ///< split into `components` for `duration` cycles
                         ///< starting at `cycle`, then heal
    kRestart,            ///< §4.2 epoch restart every `cycle` cycles
  };

  Kind kind = Kind::kNone;
  double p = 0.0;            ///< kProportionalCrash
  std::uint32_t cycle = 0;   ///< kSuddenDeath trigger / kCorrelatedWaves
                             ///< trigger / kPartition start / kRestart period
  double fraction = 0.0;     ///< kSuddenDeath / kChurnFraction /
                             ///< kCorrelatedWaves wave width
  std::uint32_t rate = 0;    ///< kChurn / kConstantCrash
  std::uint32_t waves = 0;       ///< kCorrelatedWaves: number of waves
  std::uint32_t duration = 0;    ///< kPartition: partitioned cycle count
  std::uint32_t components = 0;  ///< kPartition: isolated components

  static FailureSpec none() { return {}; }
  static FailureSpec proportional_crash(double p_fail);
  static FailureSpec sudden_death(std::uint32_t death_cycle, double fraction);
  static FailureSpec churn(std::uint32_t rate);
  static FailureSpec churn_fraction(double fraction);
  static FailureSpec constant_crash(std::uint32_t rate);
  static FailureSpec correlated_waves(std::uint32_t trigger,
                                      std::uint32_t waves, double fraction);
  static FailureSpec partition(std::uint32_t start, std::uint32_t duration,
                               std::uint32_t components);
  static FailureSpec restart(std::uint32_t period);

  /// Instantiates the concrete plan for a network of `nodes` nodes. A
  /// partition builds as NoFailures — its enforcement is the drivers'
  /// exchange filter (SimConfig::partition), not a node-failure plan.
  [[nodiscard]] std::unique_ptr<failure::FailurePlan> build(
      std::uint32_t nodes) const;

  bool operator==(const FailureSpec&) const = default;
};

/// Communication-failure probabilities (§6.2); mirrors CommFailureModel.
struct CommSpec {
  double link_failure = 0.0;   ///< P_d: whole exchange silently dropped
  double message_loss = 0.0;   ///< per-message loss (request and response)

  bool operator==(const CommSpec&) const = default;
};

/// Deployment-runtime knobs (driver 'runtime', runtime/executor.hpp):
/// executor shape, transport selection and injected link faults. Defaults
/// describe a single-process loopback run; like the adversarial failure
/// fields, the whole object is serialized only when non-default so every
/// pre-existing spec keeps its canonical JSON and spec_hash bit-identical.
struct RuntimeSpec {
  enum class TransportKind {
    kLoopback,  ///< in-process frames (N=10³–10⁴ nodes, one process)
    kSocket,    ///< TCP over loopback between `processes` cooperating runs
  };
  /// Injected one-way delay model (failure::Latency), in microseconds:
  /// fixed uses delay_lo_us; uniform draws [delay_lo_us, delay_hi_us];
  /// exponential uses delay_lo_us as base and delay_hi_us as tail mean.
  using LatencyKind = failure::Latency::Kind;

  std::uint32_t workers = 0;        ///< dispatcher threads; 0 = auto
  std::uint32_t wheel_slots = 8;    ///< timer-wheel wakeup ticks per cycle
  std::uint32_t delta_us = 0;       ///< δ wall pacing per cycle; 0 free-runs
  std::uint32_t timeout_ms = 2000;  ///< per-cycle pending wall guard
  TransportKind transport = TransportKind::kLoopback;
  std::uint32_t processes = 1;      ///< socket: cooperating process count
  std::uint32_t process_index = 0;  ///< socket: this process's shard
  std::uint32_t port_base = 0;      ///< socket: process p listens on base+p
  LatencyKind latency = LatencyKind::kNone;
  std::uint32_t delay_lo_us = 0;
  std::uint32_t delay_hi_us = 0;

  bool operator==(const RuntimeSpec&) const = default;
};

/// What a sweep varies from point to point.
enum class SweepAxis {
  kNone,           ///< single point (its value is ignored)
  kNodes,          ///< network size (fig. 3a)
  kBeta,           ///< Watts–Strogatz rewiring probability (fig. 4a)
  kCacheSize,      ///< NEWSCAST c (fig. 4b)
  kCrashP,         ///< per-cycle crash proportion P_f (fig. 5)
  kDeathCycle,     ///< sudden-death cycle (fig. 6a)
  kChurnFraction,  ///< churned fraction of N per cycle (fig. 6b)
  kLinkP,          ///< link-failure probability P_d (fig. 7a)
  kLossP,          ///< message-loss probability (fig. 7b)
  kInstances,      ///< concurrent COUNT instances t (fig. 8)
  kCycles,         ///< epoch length γ (epoch-length ablation)
  kInit,           ///< initial distribution (0..3 = InitKind)
  kAtomicity,      ///< exchange atomicity flag (event-driver ablation)
  kByzFraction,    ///< byzantine fraction (robustness_adversarial)
  kPartitionComponents,  ///< partition component count
  kPartitionDuration,    ///< partitioned cycle count before heal
};

/// One sweep point: the axis value plus the historical seed-point id
/// that rep_seed() mixes into every repetition's seed — pinned per
/// figure so registered scenarios reproduce the pre-redesign series
/// bit-identically.
struct SweepPoint {
  double value = 0.0;
  std::uint64_t seed_point = 0;
  std::string label;  ///< optional display label (e.g. "bimodal")

  bool operator==(const SweepPoint&) const = default;
};

struct SweepSpec {
  SweepAxis axis = SweepAxis::kNone;
  std::vector<SweepPoint> points;

  /// The no-sweep shape: one point carrying only a seed-point id.
  static SweepSpec single(std::uint64_t seed_point) {
    return {SweepAxis::kNone, {{0.0, seed_point, ""}}};
  }

  bool operator==(const SweepSpec&) const = default;
};

/// The declarative scenario. Defaults describe a plain AVERAGE peak run
/// on NEWSCAST(c=30) — every field is data and JSON-serializable.
struct ScenarioSpec {
  std::string name;
  std::string title;  ///< optional human-readable description

  DriverKind driver = DriverKind::kCycle;
  AggregateKind aggregate = AggregateKind::kAverage;
  std::uint32_t instances = 1;  ///< COUNT's t
  InitKind init = InitKind::kPeak;

  std::uint32_t nodes = 10000;
  std::uint32_t cycles = 30;
  std::uint32_t reps = 1;
  std::uint64_t seed = 0x5eed;

  TopologyConfig topology;  ///< cycle_sim.hpp's topology description
  FailureSpec failure;
  CommSpec comm;
  AdversarySpec adversary;  ///< byzantine behavior (cycle driver only)
  CombineSpec combine;      ///< exchange combine rule, mean() = paper
  DriftSpec drift;      ///< dynamic local values (cycle driver only)
  ServiceSpec service;  ///< epoch pipelining + query service
  bool atomic_exchanges = true;  ///< event driver only (§4.2 guard)
  RuntimeSpec runtime;  ///< deployment-runtime knobs (driver 'runtime')

  EngineKind engine = EngineKind::kAuto;
  unsigned threads = 0;  ///< 0 = hardware (runner_threads()); <= 256
  unsigned shards = 0;   ///< 0 = hardware (runner_threads())
  /// Matched propose/match/apply rounds per cycle in the intra-rep
  /// engine (1..16). One round leaves a per-cycle convergence factor of
  /// ≈ 0.55 on the AVERAGE-peak workload; the factor compounds per
  /// round, meeting the serial driver's ≈ 0.30 at 2 and beating it at
  /// 3. Values > 1 require engine 'intra_rep' — other engines have no
  /// match phase and would silently drop the field.
  std::uint32_t match_rounds = 1;

  SweepSpec sweep = SweepSpec::single(0);

  // ---- programmatic builders -------------------------------------------

  /// AVERAGE with the peak distribution (the fig. 2–5 workload).
  static ScenarioSpec average_peak(std::string name, std::uint32_t nodes,
                                   std::uint32_t cycles);
  /// COUNT with `instances` concurrent leaders (the fig. 6–8 workload).
  static ScenarioSpec count(std::string name, std::uint32_t nodes,
                            std::uint32_t cycles, std::uint32_t instances = 1);

  ScenarioSpec& with_topology(TopologyConfig t);
  ScenarioSpec& with_failure(FailureSpec f);
  ScenarioSpec& with_comm(CommSpec c);
  ScenarioSpec& with_adversary(AdversarySpec a);
  ScenarioSpec& with_combine(CombineSpec c);
  ScenarioSpec& with_drift(DriftSpec d);
  ScenarioSpec& with_service(ServiceSpec s);
  ScenarioSpec& with_init(InitKind k);
  ScenarioSpec& with_reps(std::uint32_t r);
  ScenarioSpec& with_seed(std::uint64_t s);
  ScenarioSpec& with_engine(EngineKind k);
  ScenarioSpec& with_driver(DriverKind d);
  ScenarioSpec& with_match_rounds(std::uint32_t r);
  ScenarioSpec& with_sweep(SweepAxis axis, std::vector<SweepPoint> points);
  ScenarioSpec& with_seed_point(std::uint64_t seed_point);  ///< no-sweep id

  /// The spec with sweep point `index` folded in: the axis value is
  /// applied to the corresponding field and the sweep collapsed to that
  /// single point. This is the per-point config the Engine executes.
  /// Throws SpecError if the value is outside the range its field's cast
  /// needs: [0, 2^32-1] on integer axes, 0..3 for init, [0,1] for
  /// atomicity. validate() checks every other rule on the result.
  [[nodiscard]] ScenarioSpec at_point(std::size_t index) const;

  bool operator==(const ScenarioSpec&) const = default;
};

// ---- string/enum names (shared by JSON, CLI and error messages) --------

std::string to_string(DriverKind);
std::string to_string(AggregateKind);
std::string to_string(InitKind);
std::string to_string(EngineKind);
std::string to_string(TopologyKind);
std::string to_string(FailureSpec::Kind);
std::string to_string(SweepAxis);
std::string to_string(AdversarySpec::Behavior);
std::string to_string(CombineSpec::Kind);
std::string to_string(DriftSpec::Kind);
std::string to_string(RuntimeSpec::TransportKind);
std::string to_string(RuntimeSpec::LatencyKind);

// ---- JSON --------------------------------------------------------------

/// Canonical JSON form (all fields, fixed key order). `indent < 0` is
/// compact — the form spec_hash() hashes.
std::string to_json(const ScenarioSpec& spec, int indent = 2);

/// Parses and validates a spec; throws SpecError with a precise message
/// on malformed JSON, unknown fields, bad enum strings or invalid values.
ScenarioSpec spec_from_json(const std::string& text);

/// Semantic validation (ranges, cross-field constraints, engine
/// eligibility); throws SpecError on the first violation. It checks
/// every sweep point as at_point(i), the spec the Engine runs; a failing
/// point's message ends in " at sweep point <v>".
void validate(const ScenarioSpec& spec);

/// The FNV-1a 64 offset basis; fold strings in with fnv1a64().
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// The FNV-1a 64 prime (a hash constant, not an RNG stream salt — RNG
/// salts live in common/stream_salt.hpp).
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Folds `text` into the running FNV-1a 64 hash `h`. spec_hash() and the
/// multi-spec provenance hash both build on this, so they can never
/// diverge.
std::uint64_t fnv1a64(std::uint64_t h, const std::string& text);

/// 16-digit lowercase hex of a 64-bit hash.
std::string hex64(std::uint64_t h);

/// FNV-1a 64 over the compact canonical JSON: stable across processes,
/// changes whenever any field changes. Embedded in provenance blocks.
std::uint64_t spec_hash(const ScenarioSpec& spec);

/// Hex form of spec_hash ("a1b2c3d4e5f60718").
std::string spec_hash_hex(const ScenarioSpec& spec);

/// Parses an EngineKind name (auto|serial|rep_parallel|intra_rep);
/// throws SpecError listing the valid values.
EngineKind engine_kind_from_string(const std::string& name);

/// Parses a full-string unsigned integer (base prefix 0x accepted);
/// throws SpecError naming `field` on anything else.
std::uint64_t parse_u64_field(const std::string& field,
                              const std::string& value);

/// parse_u64_field for a 32-bit field: a value past 2^32 - 1 throws a
/// SpecError naming `field` instead of wrapping.
std::uint32_t parse_u32_field(const std::string& field,
                              const std::string& value);

/// The closest entry of `valid` to `key` by edit distance, or "" when
/// nothing is close enough to be a plausible typo. Backs the
/// "did you mean 'aggregate'?" tail on unknown --set keys.
std::string nearest_key(const std::string& key,
                        std::initializer_list<const char*> valid);
std::string nearest_key(const std::string& key,
                        const std::vector<const char*>& valid);

// ---- spec-surface introspection ----------------------------------------

/// One row of the field-descriptor table (spec_fields.hpp) in runtime
/// form. The same rows generate parse, canonical serialization and the
/// --set dispatch, so this table IS the spec surface; spec_test checks
/// its golden cases and EXPERIMENTS.md's field reference against it.
struct SpecFieldDescriptor {
  const char* json_path;  ///< dotted canonical-JSON path
  const char* type;       ///< field tag (STR/U32/U64/UNS/SIZE/DBL/PROB/
                          ///< BOOL/ENUM/OBJ/PTS)
  const char* set_key;    ///< --set key ("" when not settable)
};

/// Every descriptor row, in canonical JSON key order, group by group.
const std::vector<SpecFieldDescriptor>& spec_field_table();

/// Every --set key in dispatch order — the exact list the unknown-key
/// SpecError names and the typo suggestion draws candidates from.
const std::vector<const char*>& spec_set_keys();

/// Applies a `key=value` override (the CLI's --set): key is any
/// SET-marked row of the descriptor table (exactly spec_set_keys()).
/// Throws SpecError for unknown keys (naming the nearest valid key when
/// one is close) or unparsable values. Does NOT re-validate —
/// combinations of overrides are only valid/invalid as a whole, so
/// callers validate() once after the last override.
void apply_override(ScenarioSpec& spec, const std::string& key,
                    const std::string& value);

}  // namespace gossip::experiment
