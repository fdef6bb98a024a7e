// The single source of truth for the ScenarioSpec field surface.
//
// Every field of the declarative spec vocabulary is ONE row in ONE of
// the X-macro tables below. From these rows spec.cpp generates, in one
// place each:
//
//   * canonical JSON serialization (key order == row order, including
//     the conditional-emission predicates that keep pre-existing specs'
//     canonical JSON and spec_hash bit-identical),
//   * JSON parsing, including the per-object unknown-key rejection
//     lists and the precise "spec: <path> must be ..." error contexts,
//   * the --set override dispatch, its supported-key list and the
//     nearest-key (Levenshtein) typo-suggestion candidate set,
//   * the introspection table (spec_field_table()) that spec_test's
//     SpecSurface tests check.
//
// Adding a field is adding a row (plus its rules in validate_fields()
// and, for enums, a name table); the parser, serializer and --set table
// all expand from the row. spec_test then fails until the field also
// has a golden wrong-type SpecError case, a --set round-trip case when
// it has a key, and a row in EXPERIMENTS.md's field reference.
//
// Row shape (every table):
//
//   X(member, json_key, tag, extra, emit, set_tok, set_key)
//
//   member   C++ member name within the owning struct
//   json_key canonical JSON key (string literal)
//   tag      field kind, selects parse/serialize codegen:
//              STR   std::string
//              U32   std::uint32_t
//              U64   std::uint64_t
//              UNS   unsigned
//              SIZE  std::size_t (serialized as u64)
//              DBL   double
//              PROB  double restricted to [0,1] at parse time
//              BOOL  bool
//              ENUM  enum via a NameTable (see `extra`)
//              OBJ   nested object (see `extra`)
//              PTS   the sweep-point array (dedicated helpers)
//   extra    ENUM: the NameTable identifier (spec.cpp); OBJ: the
//            <extra>_to_json / <extra>_from_json function prefix;
//            otherwise `_`
//   emit     serialization predicate:
//              ALWAYS        unconditional (the pre-redesign surface)
//              IF_NONZERO    emitted only when != 0 (late-added scalar
//                            fields of an always-emitted object)
//              IF_NONEMPTY   emitted only when non-empty (title/label)
//              IF_NONDEFAULT whole object emitted only when any field
//                            differs from the defaults (late-added
//                            vocabularies: adversary/combine/drift/
//                            service/runtime)
//   set_tok  SET when the field has a --set override key, else NOSET
//   set_key  the --set key (string literal; "" for NOSET rows)
//
// The defaults are the member initializers.
#pragma once

// ---- top level ---------------------------------------------------------
// Row order is the canonical JSON key order; the --set key list starts
// with these rows (SET rows only) in this order.
#define GOSSIP_SPEC_TOP_FIELDS(X)                                           \
  X(name, "name", STR, _, ALWAYS, SET, "name")                              \
  X(title, "title", STR, _, IF_NONEMPTY, SET, "title")                      \
  X(driver, "driver", ENUM, kDriverNames, ALWAYS, SET, "driver")            \
  X(aggregate, "aggregate", ENUM, kAggregateNames, ALWAYS, SET,             \
    "aggregate")                                                            \
  X(instances, "instances", U32, _, ALWAYS, SET, "instances")               \
  X(init, "init", ENUM, kInitNames, ALWAYS, SET, "init")                    \
  X(nodes, "nodes", U32, _, ALWAYS, SET, "nodes")                           \
  X(cycles, "cycles", U32, _, ALWAYS, SET, "cycles")                        \
  X(reps, "reps", U32, _, ALWAYS, SET, "reps")                              \
  X(seed, "seed", U64, _, ALWAYS, SET, "seed")                              \
  X(topology, "topology", OBJ, topology, ALWAYS, NOSET, "")                 \
  X(failure, "failure", OBJ, failure, ALWAYS, NOSET, "")                    \
  X(comm, "comm", OBJ, comm, ALWAYS, NOSET, "")                             \
  X(adversary, "adversary", OBJ, adversary, IF_NONDEFAULT, NOSET, "")       \
  X(combine, "combine", OBJ, combine, IF_NONDEFAULT, NOSET, "")             \
  X(drift, "drift", OBJ, drift, IF_NONDEFAULT, NOSET, "")                   \
  X(service, "service", OBJ, service, IF_NONDEFAULT, NOSET, "")             \
  X(runtime, "runtime", OBJ, runtime, IF_NONDEFAULT, NOSET, "")             \
  X(atomic_exchanges, "atomic_exchanges", BOOL, _, ALWAYS, SET,             \
    "atomic_exchanges")                                                     \
  X(engine, "engine", ENUM, kEngineNames, ALWAYS, SET, "engine")            \
  X(threads, "threads", UNS, _, ALWAYS, SET, "threads")                     \
  X(shards, "shards", UNS, _, ALWAYS, SET, "shards")                        \
  X(match_rounds, "match_rounds", U32, _, ALWAYS, SET, "match_rounds")      \
  X(sweep, "sweep", OBJ, sweep, ALWAYS, NOSET, "")

// ---- nested: topology (cycle_sim.hpp's TopologyConfig) -----------------
#define GOSSIP_SPEC_TOPOLOGY_FIELDS(X)                                      \
  X(kind, "kind", ENUM, kTopologyNames, ALWAYS, NOSET, "")                  \
  X(degree, "degree", U32, _, ALWAYS, NOSET, "")                            \
  X(beta, "beta", DBL, _, ALWAYS, NOSET, "")                                \
  X(cache_size, "cache_size", SIZE, _, ALWAYS, NOSET, "")

// ---- nested: failure ---------------------------------------------------
// waves/duration/components joined after the original kinds' provenance
// hashes were pinned: IF_NONZERO keeps every pre-existing canonical
// JSON byte-identical.
#define GOSSIP_SPEC_FAILURE_FIELDS(X)                                       \
  X(kind, "kind", ENUM, kFailureNames, ALWAYS, NOSET, "")                   \
  X(p, "p", PROB, _, ALWAYS, NOSET, "")                                     \
  X(cycle, "cycle", U32, _, ALWAYS, NOSET, "")                              \
  X(fraction, "fraction", PROB, _, ALWAYS, NOSET, "")                       \
  X(rate, "rate", U32, _, ALWAYS, NOSET, "")                                \
  X(waves, "waves", U32, _, IF_NONZERO, NOSET, "")                          \
  X(duration, "duration", U32, _, IF_NONZERO, NOSET, "")                    \
  X(components, "components", U32, _, IF_NONZERO, NOSET, "")

// ---- nested: comm ------------------------------------------------------
#define GOSSIP_SPEC_COMM_FIELDS(X)                                          \
  X(link_failure, "link_failure", PROB, _, ALWAYS, NOSET, "")               \
  X(message_loss, "message_loss", PROB, _, ALWAYS, NOSET, "")

// ---- nested: adversary -------------------------------------------------
#define GOSSIP_SPEC_ADVERSARY_FIELDS(X)                                     \
  X(behavior, "behavior", ENUM, kAdversaryNames, ALWAYS, SET, "adversary")  \
  X(fraction, "fraction", DBL, _, ALWAYS, SET, "adversary_fraction")        \
  X(value, "value", DBL, _, ALWAYS, SET, "adversary_value")

// ---- nested: combine ---------------------------------------------------
#define GOSSIP_SPEC_COMBINE_FIELDS(X)                                       \
  X(kind, "kind", ENUM, kCombineNames, ALWAYS, SET, "combine")              \
  X(alpha, "alpha", DBL, _, ALWAYS, SET, "combine_alpha")                   \
  X(groups, "groups", U32, _, ALWAYS, SET, "combine_groups")                \
  X(window, "window", U32, _, ALWAYS, SET, "combine_window")

// ---- nested: drift -----------------------------------------------------
#define GOSSIP_SPEC_DRIFT_FIELDS(X)                                         \
  X(kind, "kind", ENUM, kDriftNames, ALWAYS, SET, "drift")                  \
  X(rate, "rate", DBL, _, ALWAYS, SET, "drift_rate")                        \
  X(magnitude, "magnitude", DBL, _, ALWAYS, SET, "drift_magnitude")         \
  X(start_cycle, "start_cycle", U32, _, ALWAYS, SET, "drift_start_cycle")

// ---- nested: service ---------------------------------------------------
#define GOSSIP_SPEC_SERVICE_FIELDS(X)                                       \
  X(pipeline, "pipeline", BOOL, _, ALWAYS, SET, "service_pipeline")         \
  X(epoch_cycles, "epoch_cycles", U32, _, ALWAYS, SET,                      \
    "service_epoch_cycles")                                                 \
  X(staleness_bound, "staleness_bound", U32, _, ALWAYS, SET,                \
    "service_staleness_bound")

// ---- nested: runtime ---------------------------------------------------
#define GOSSIP_SPEC_RUNTIME_FIELDS(X)                                       \
  X(workers, "workers", U32, _, ALWAYS, SET, "runtime_workers")             \
  X(wheel_slots, "wheel_slots", U32, _, ALWAYS, SET, "runtime_wheel_slots") \
  X(delta_us, "delta_us", U32, _, ALWAYS, SET, "runtime_delta_us")          \
  X(timeout_ms, "timeout_ms", U32, _, ALWAYS, SET, "runtime_timeout_ms")    \
  X(transport, "transport", ENUM, kRuntimeTransportNames, ALWAYS, SET,      \
    "runtime_transport")                                                    \
  X(processes, "processes", U32, _, ALWAYS, SET, "runtime_processes")       \
  X(process_index, "process_index", U32, _, ALWAYS, SET,                    \
    "runtime_process_index")                                                \
  X(port_base, "port_base", U32, _, ALWAYS, SET, "runtime_port_base")       \
  X(latency, "latency", ENUM, kRuntimeLatencyNames, ALWAYS, SET,            \
    "runtime_latency")                                                      \
  X(delay_lo_us, "delay_lo_us", U32, _, ALWAYS, SET, "runtime_delay_lo_us") \
  X(delay_hi_us, "delay_hi_us", U32, _, ALWAYS, SET, "runtime_delay_hi_us")

// ---- nested: sweep -----------------------------------------------------
#define GOSSIP_SPEC_SWEEP_FIELDS(X)                                         \
  X(axis, "axis", ENUM, kAxisNames, ALWAYS, NOSET, "")                      \
  X(points, "points", PTS, _, ALWAYS, NOSET, "")

// ---- nested: sweep.points entries --------------------------------------
#define GOSSIP_SPEC_SWEEP_POINT_FIELDS(X)                                   \
  X(value, "value", DBL, _, ALWAYS, NOSET, "")                              \
  X(seed_point, "seed_point", U64, _, ALWAYS, NOSET, "")                    \
  X(label, "label", STR, _, IF_NONEMPTY, NOSET, "")
