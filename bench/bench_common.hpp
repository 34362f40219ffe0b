// Shared machinery for the table/figure reproduction benches. The actual
// evaluation harness (attack factory, defense configurations, headline
// metrics, run helpers) lives in src/eval/harness.* so the golden-metrics
// tests regress exactly what the benches print; this header re-exports it
// under platoon::bench and adds the bench-side PLATOON_JOBS plumbing.
#pragma once

#include "core/report.hpp"
#include "eval/harness.hpp"
#include "scen/schema.hpp"
#include "security/attacks/dos.hpp"
#include "security/attacks/eavesdrop.hpp"
#include "security/attacks/fake_maneuver.hpp"
#include "security/attacks/gps_spoof.hpp"
#include "security/attacks/impersonation.hpp"
#include "security/attacks/jamming.hpp"
#include "security/attacks/malware.hpp"
#include "security/attacks/replay.hpp"
#include "security/attacks/sensor_spoof.hpp"
#include "security/attacks/sybil.hpp"

namespace platoon::bench {

using core::AttackKind;
using core::DefenseKind;
using core::MetricMap;

using eval::EvalCell;
using eval::Headline;
using eval::kEvalDuration;

using eval::apply_defense;
using eval::eval_config;
using eval::headline_for;
using eval::make_attack;
using eval::metric;
using eval::run_eval;
using eval::run_eval_grid;
using eval::run_eval_once;
using eval::verdict;

/// Worker count for the bench grids: PLATOON_JOBS if set (1 reproduces the
/// serial path byte-for-byte), else hardware concurrency. Printed once per
/// binary so a table's provenance records how it was produced.
[[nodiscard]] unsigned jobs();

/// Announces the job count on stderr (tables on stdout stay byte-identical
/// at any job count).
void print_jobs_banner(const char* binary);

/// Enables the observability layer and clears counters/timers, so the
/// exported artifact covers exactly this binary's deterministic phase.
void obs_init();

/// Writes BENCH_<bench>.json (counters + manifest + timings) to
/// $PLATOON_BENCH_JSON_DIR or the working directory. Must run AFTER the
/// deterministic table phase; bench_perf_kernel also calls it BEFORE its
/// google-benchmark loops, whose dynamic iteration counts would leak
/// machine-dependent totals into the counter section.
void write_bench_json(const char* bench, const char* scenario,
                      std::uint64_t seed);

/// Directory holding the committed scenario descriptions:
/// $PLATOON_SCENARIO_DIR when set, else the source tree's scenarios/.
[[nodiscard]] std::string scenario_dir();

/// Loads and compiles scenarios/<name>.json. A committed description that
/// no longer validates is a build defect, not a recoverable condition: the
/// compiler diagnostic goes to stderr and the bench exits 2.
[[nodiscard]] scen::Compiled load_scenario(const char* name);

/// Lowers compiled scenario cells onto the eval grid. Cell order (and thus
/// the fold order run_eval_grid pins) is the description's enumeration
/// order, so tables printed from the result stay byte-identical.
[[nodiscard]] std::vector<EvalCell> to_eval_cells(
    const std::vector<scen::CompiledCell>& cells);

}  // namespace platoon::bench
