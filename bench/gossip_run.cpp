// gossip_run — the single CLI over the declarative experiment layer.
//
//   gossip_run --list
//       every registered scenario (one per pre-redesign bench binary)
//   gossip_run --scenario fig06b [--format table|csv|json]
//       reproduce a figure/ablation/baseline series (bit-identical to
//       the historical binary at the same scale)
//   gossip_run --spec experiment.json [--set key=value ...]
//       run an ad-hoc declarative ScenarioSpec
//   gossip_run --scenario fig02 --set reps=50 --set nodes=100000
//       scale overrides
//
// A run is a function of its command line; no environment variable is
// read. Scale resolution for --scenario: --set nodes / reps / seed beat
// the scenario's defaults, scaled or (--set full=1) the paper's. Engine
// knobs (--set threads=…, shards=…, engine=…) beat the spec, which beats
// the hardware.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "experiment/emit.hpp"
#include "experiment/engine.hpp"
#include "experiment/registry.hpp"
#include "experiment/spec.hpp"
#include "experiment/table.hpp"

namespace {

using namespace gossip;
using namespace gossip::experiment;

int usage(std::ostream& os, int code) {
  os << "usage: gossip_run --list\n"
        "       gossip_run --scenario NAME [--set key=value ...] "
        "[--format table|csv|json]\n"
        "       gossip_run --spec FILE.json [--set key=value ...] "
        "[--format table|csv|json]\n"
        "       gossip_run --validate --spec FILE.json [--set key=value "
        "...]\n"
        "\n"
        "  --list              list registered scenarios\n"
        "  --scenario NAME     run a registered scenario (see --list)\n"
        "  --spec FILE         run a declarative ScenarioSpec JSON file\n"
        "  --validate          parse + validate the spec without running\n"
        "                      it; print the canonical JSON and exit 0\n"
        "                      (2 on any parse/validation error)\n"
        "  --set key=value     override a field; scenarios accept\n"
        "                      nodes|reps|seed|full|threads|shards|engine,\n"
        "                      spec files any top-level scalar spec field\n"
        "  --runtime           run the spec on the deployment runtime\n"
        "                      (shorthand for --set driver=runtime; spec\n"
        "                      files only)\n"
        "  --format FMT        table (default), csv, or json (with\n"
        "                      provenance block)\n";
  return code;
}

int list_scenarios() {
  Table table({"scenario", "figure", "series"});
  for (const ScenarioDef& def : ScenarioRegistry::instance().all()) {
    table.add_row({def.info.name, def.info.figure, def.info.description});
  }
  table.print(std::cout);
  std::cout << "\nrun one with: gossip_run --scenario <name>   "
               "(--set full=1 for paper scale)\n";
  return 0;
}

struct SetOverride {
  std::string key;
  std::string value;
};

/// Repeating --set for one key is legal but easy to do by accident in a
/// long command line; make the last-wins resolution explicit on stderr.
void note_repeated_sets(const std::vector<SetOverride>& sets) {
  for (std::size_t i = 0; i < sets.size(); ++i) {
    bool last = true;
    bool repeated = false;
    for (std::size_t j = i + 1; j < sets.size(); ++j) {
      if (sets[j].key == sets[i].key) {
        last = false;
        break;
      }
    }
    if (!last) continue;
    for (std::size_t j = 0; j < i; ++j) {
      if (sets[j].key == sets[i].key) {
        repeated = true;
        break;
      }
    }
    if (repeated) {
      std::cerr << "gossip_run: --set " << sets[i].key
                << " given more than once; last value wins ('"
                << sets[i].value << "')\n";
    }
  }
}

int run_registered(const std::string& name,
                   const std::vector<SetOverride>& sets,
                   OutputFormat format) {
  const ScenarioDef* def = ScenarioRegistry::instance().find(name);
  if (def == nullptr) {
    std::cerr << "gossip_run: unknown scenario '" << name
              << "' (try --list)\n";
    return 2;
  }
  // `full` must resolve before nodes/reps: it selects which defaults
  // (scaled vs paper) those resolve *from*.
  bool full = false;
  for (const SetOverride& set : sets) {
    if (set.key != "full") continue;
    if (set.value == "1" || set.value == "true") {
      full = true;
    } else if (set.value == "0" || set.value == "false") {
      full = false;
    } else {
      throw SpecError("spec: --set full expects true/false, got '" +
                      set.value + "'");
    }
  }
  Scale scale = bench_scale(def->info.def_nodes, def->info.def_reps,
                            def->info.paper_nodes, def->info.paper_reps,
                            full);
  EngineOptions options;
  for (const SetOverride& set : sets) {
    if (set.key == "nodes") {
      scale.nodes = parse_u32_field(set.key, set.value);
    } else if (set.key == "reps") {
      scale.reps = parse_u32_field(set.key, set.value);
    } else if (set.key == "seed") {
      scale.seed = parse_u64_field(set.key, set.value);
    } else if (set.key == "full") {
      // already applied above
    } else if (set.key == "threads") {
      options.threads = parse_u32_field(set.key, set.value);
    } else if (set.key == "shards") {
      options.shards = parse_u32_field(set.key, set.value);
    } else if (set.key == "engine") {
      options.kind = engine_kind_from_string(set.value);
    } else {
      const std::string suggestion = nearest_key(
          set.key,
          {"nodes", "reps", "seed", "full", "threads", "shards", "engine"});
      throw SpecError(
          "spec: --set for a registered scenario supports "
          "nodes|reps|seed|full|threads|shards|engine, got '" +
          set.key + "'" +
          (suggestion.empty() ? ""
                              : " (did you mean '" + suggestion + "'?)"));
    }
  }
  if (format == OutputFormat::kTable) {
    const unsigned threads =
        options.threads != 0 ? options.threads : runner_threads();
    print_banner(std::cout, def->info.figure, def->info.description,
                 {scale_note(scale, def->info.paper_setup, threads),
                  "(--set full=1 for paper scale; --set nodes / reps / "
                  "seed override)"});
  }
  ScenarioOutput out = run_scenario(*def, scale, options);
  render_scenario(std::cout, name, out.table, out.trailer, out.results,
                  format, scale.full);
  return 0;
}

int run_spec_file(const std::string& path,
                  const std::vector<SetOverride>& sets,
                  OutputFormat format, bool validate_only) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "gossip_run: cannot read spec file '" << path << "'\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  ScenarioSpec spec = spec_from_json(text.str());
  EngineOptions options;
  for (const SetOverride& set : sets) {
    if (set.key == "threads") {
      options.threads = parse_u32_field(set.key, set.value);
    } else if (set.key == "shards") {
      options.shards = parse_u32_field(set.key, set.value);
    } else {
      apply_override(spec, set.key, set.value);
    }
  }
  // Overrides are only valid/invalid as a whole — validate once here,
  // so `--set instances=4 --set aggregate=count` works in either order.
  // --set threads/shards stay out of the spec (and its spec_hash) but
  // are validated as run.
  validate_as_run(spec, resolve_engine(spec, options));
  if (validate_only) {
    // Everything parsed and validated; echo the canonical form (what
    // spec_hash hashes, indented) so CI can diff what it checked.
    std::cout << to_json(spec) << '\n';
    return 0;
  }
  Engine engine(options);
  const ScenarioResult result = engine.run(spec);
  const Table table = generic_table(result);
  if (format == OutputFormat::kTable) {
    print_banner(std::cout, spec.name,
                 spec.title.empty() ? "declarative scenario spec"
                                    : spec.title,
                 {"nodes=" + std::to_string(spec.nodes) +
                  ", reps=" + std::to_string(spec.reps) +
                  ", seed=" + std::to_string(spec.seed) +
                  ", engine=" + to_string(result.engine.kind)});
  }
  render_scenario(std::cout, spec.name, table, "", {result}, format,
                  /*full_scale=*/false);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario;
  std::string spec_path;
  std::vector<SetOverride> sets;
  OutputFormat format = OutputFormat::kTable;
  bool list = false;
  bool validate_only = false;
  bool runtime_driver = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw SpecError("spec: " + arg + " needs an argument");
        }
        return argv[++i];
      };
      if (arg == "--list") {
        list = true;
      } else if (arg == "--validate") {
        validate_only = true;
      } else if (arg == "--runtime") {
        runtime_driver = true;
      } else if (arg == "--scenario") {
        scenario = next();
      } else if (arg == "--spec") {
        spec_path = next();
      } else if (arg == "--set") {
        const std::string kv = next();
        const auto eq = kv.find('=');
        if (eq == std::string::npos || eq == 0) {
          throw SpecError("spec: --set expects key=value, got '" + kv + "'");
        }
        sets.push_back({kv.substr(0, eq), kv.substr(eq + 1)});
      } else if (arg == "--format") {
        format = parse_format(next());
      } else if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else {
        std::cerr << "gossip_run: unknown argument '" << arg << "'\n";
        return usage(std::cerr, 2);
      }
    }

    if (list) return list_scenarios();
    if (!scenario.empty() && !spec_path.empty()) {
      std::cerr << "gossip_run: --scenario and --spec are exclusive\n";
      return 2;
    }
    if (validate_only && spec_path.empty()) {
      std::cerr << "gossip_run: --validate requires --spec FILE.json\n";
      return 2;
    }
    if (runtime_driver) {
      if (spec_path.empty()) {
        std::cerr << "gossip_run: --runtime requires --spec FILE.json\n";
        return 2;
      }
      // Applied before every --set so an explicit --set driver=… (or any
      // runtime_* knob) still wins via the normal last-wins resolution.
      sets.insert(sets.begin(), {"driver", "runtime"});
    }
    note_repeated_sets(sets);
    if (!scenario.empty()) return run_registered(scenario, sets, format);
    if (!spec_path.empty()) {
      return run_spec_file(spec_path, sets, format, validate_only);
    }
    return usage(std::cerr, 2);
  } catch (const SpecError& e) {
    std::cerr << "gossip_run: " << e.what() << '\n';
    return 2;
  } catch (const json::Error& e) {
    std::cerr << "gossip_run: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    // Anything else (a GOSSIP_REQUIRE tripping at runtime, bad_alloc,
    // …) previously escaped main and died in std::terminate with no
    // message; fail loudly and diagnosably instead.
    std::cerr << "gossip_run: unexpected error: " << e.what() << '\n';
    return 3;
  }
}
