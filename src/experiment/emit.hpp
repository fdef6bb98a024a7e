// Output rendering for the declarative experiment layer: table / CSV /
// JSON formatting of scenario results, and the provenance block that
// makes every committed number traceable to the configuration that
// produced it (git sha, scale mode, threads/shards, engine, spec hash).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "experiment/engine.hpp"
#include "experiment/spec.hpp"
#include "experiment/table.hpp"

namespace gossip::experiment {

enum class OutputFormat { kTable, kCsv, kJson };

/// Parses table|csv|json; throws SpecError otherwise.
OutputFormat parse_format(const std::string& name);

/// The git revision this binary was configured from ("unknown" outside a
/// git checkout; captured at CMake configure time).
std::string build_git_sha();

/// Everything needed to reproduce a committed number.
struct Provenance {
  std::string git_sha;
  std::string scale_mode;  ///< "paper" | "scaled"
  std::uint32_t nodes = 0;
  std::uint32_t reps = 0;
  std::uint64_t seed = 0;
  unsigned threads = 1;
  unsigned shards = 1;
  std::string engine;     ///< resolved engine kind
  std::string spec_hash;  ///< hex FNV over the canonical spec JSON(s)
};

/// Combined provenance for a multi-spec scenario (spec hashes fold
/// together; scale fields come from the first spec).
Provenance make_provenance(const std::vector<ScenarioResult>& results,
                           bool full_scale);

/// Generic series for ad-hoc `--spec file.json` runs: one row per sweep
/// point — estimate mean/min/max over reps, mean convergence factor,
/// surviving participants.
Table generic_table(const ScenarioResult& result);

/// Nearest-rank percentile of snapshot-age samples (pct in (0, 100]);
/// 0 when the run served no queries.
std::uint32_t staleness_percentile(const std::vector<std::uint32_t>& samples,
                                   double pct);

/// Cross-rep roll-up of one sweep point's continuous-service results.
/// Every field is a pure function of the spec, so tables and trailers
/// that print them are reproducible.
struct ServiceSummary {
  double tracking_error = 0.0;        ///< mean over reps of final |est − truth|
  std::uint32_t p99_staleness = 0;    ///< max over reps of per-rep p99 age
  bool stale_ok = true;               ///< p99 within spec.service.staleness_bound
  std::uint64_t epochs_published = 0; ///< total reports published over reps
  std::uint64_t queries = 0;          ///< total snapshot queries served
};

/// Summarizes the service surface of one executed sweep point against the
/// spec's staleness bound (a bound of 0 means "unchecked", stale_ok stays
/// true).
ServiceSummary summarize_service(const ScenarioSpec& spec,
                                 const PointResult& point);

/// Renders a scenario's table + trailer + results in `format`. JSON
/// output carries the specs, the per-rep result summaries and the
/// provenance block.
void render_scenario(std::ostream& os, const std::string& name,
                     const Table& table, const std::string& trailer,
                     const std::vector<ScenarioResult>& results,
                     OutputFormat format, bool full_scale);

}  // namespace gossip::experiment
