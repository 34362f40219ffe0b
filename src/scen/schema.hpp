// Declarative scenario descriptions: a small JSON DSL (parsed with the
// obs::Json value type) that composes topology x controller x attack x
// fault x defense x auth-mode into validated core::ScenarioConfig grids.
// The Table II/III/V bench matrices are compiled from committed
// descriptions under scenarios/ instead of being hand-built in C++.
//
// Description schema (all names resolve through scen/registry.*):
//
//   {
//     "name": "table2_threats",            // required identifier
//     "title": "human-readable banner",    // optional
//     "profile": "eval" | "detection",     // base config, default "eval"
//     "seed": 42,                          // base master seed, default 42
//     "seeds": 3,                          // default replications per cell
//     "overrides": { ... },                // applied to every grid (below)
//     "fault_presets": {                   // named fault::FaultPlan blocks
//       "burst-loss": {"burst_loss": [{"start_s": 20.0, ...}]},
//       ...                                // "none" and "all" are reserved
//     },
//     "grids": [                           // required, concatenated in order
//       {
//         "axes": {
//           "attacks":  ["all"] or ["replay", "sybil", ...],  // required
//           "attacked": [false, true],     // default [true]
//           "defenses": ["none", "roadside-units", ...],  // default ["none"]
//           "faults":   ["none", "burst-loss", ...]       // default ["none"]
//         },
//         "seeds": 2,                      // optional, inherits
//         "overrides": { ... }             // optional, on top of top-level
//       }
//     ]
//   }
//
// Config overrides (validated key-by-key; unknown keys are errors):
//   platoon_size, controller, initial_speed_mps, initial_gap_m, rsu_count,
//   control_period_s, beacon_period_s, share_verify_verdicts, a nested
//   "security" object (auth_mode, encrypt_payloads, freshness_window_s,
//   check_replay, pseudonym_rotation_s, vpd_ada, trust_management,
//   hybrid_comms, sensor_fusion, firewall, antivirus, report_misbehavior,
//   join_rate_limit_s), and the corridor topology:
//
//   "platoons": [                          // extra platoons on the corridor
//     {"size": 16, "start_offset_m": -600.0, "lane": 1,
//      "speed_delta_mps": 2.0},            // all fields optional
//     ...                                  // up to 63 (node-id space)
//   ],
//   "corridor": [                          // scripted traffic events
//     {"event": "merge",       "at_s": 20.0, "platoon": 1},
//     {"event": "split",       "at_s": 30.0, "platoon": 2, "index": 8},
//     {"event": "cut-in",      "at_s": 25.0, "platoon": 3, "index": 4},
//     {"event": "rsu-handoff", "at_s": 40.0, "platoon": 0, "index": 1}
//   ]
//
//   "platoon" 0 is the primary platoon, 1.. index the "platoons" array;
//   event/platoon/vehicle/RSU references are cross-checked per cell after
//   all overrides merge.
//
//   The stealth-frontier experiment (the Table VI bench) is described by a
//   top-level-only "stealth" block (rejected inside grid overrides -- the
//   search runs once per description, not once per cell):
//
//   "stealth": {
//     "injections": ["sensor-spoof", "gps-spoof", "fake-maneuver"],
//     "victim_index": 3,                   // platoon member under injection
//     "start_s": 20.0,                     // attack window opens
//     "horizon_s": 70.0,                   // replication length
//     "amplitude": {"min": 0.5, "max": 5.0, "steps": 4},   // meters
//     "ramp":      {"min": 0.0, "max": 4.0, "steps": 2},   // meters/s
//     "duty":      {"min": 0.25, "max": 1.0, "steps": 3},  // fraction
//     "duty_period_s": 8.0,                // burst period
//     "onset_max_s": 2.0,                  // CEM onset-jitter range
//     "cem": {"iterations": 2, "population": 12, "elites": 4},
//     "seeds": 1                           // replications per candidate
//   }
//
// Cell enumeration order is deterministic and documented: grids in file
// order; within a grid defenses -> faults -> attacks -> attacked, each axis
// in its declared order. The Table benches index into this order, and the
// golden/benchdiff gates pin it.
//
// Composition order per cell: base profile, then top-level overrides, then
// grid overrides, then the defense mechanism (the defense axis wins over a
// conflicting override), then the fault preset. Overrides are bound once:
// the top-level block onto the base profile, each grid's block onto a copy
// of that, and every cell of the grid copies the grid's config.
//
// One field binder reads every object a description can hold: the top
// level, a grid and its axes, overrides, security, platoons[], corridor[],
// stealth with its three search axes and cem, and a fault preset with its
// four item kinds. Each is a static table of fields -- key, reader (type
// and bounds), the member it writes, and whether it is required. Binding an
// object rejects the first key outside its table (with a "did you mean"
// and the sorted key list), reads the present fields in table order, then
// runs the block's cross-field check (max >= min, elites <= population,
// horizon_s > start_s, end_s > start_s, a preset defines some fault).
//
// Validation produces one actionable error with a JSON path: unknown keys,
// unknown names (with a "did you mean" suggestion), out-of-range values,
// duplicate axis entries, and incompatible combinations (encrypt-only with
// no authenticated mode; a clock-drift fault where no receiver checks
// timestamps; a fault aimed at a vehicle index outside the platoon). Two
// rules follow from the binder:
//   - An explicit null is a value, never an absent key: it fails the
//     field's type check like any other wrong type.
//   - Of several faults in one document, the first in structure order is
//     reported: a block's unknown keys, then its fields in table order,
//     then its cross-field check. The top-level fields and overrides come
//     before any grid; each grid's fields come before its cells' checks.
//     Security, overrides and a fault preset list their fields in key
//     order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "scen/registry.hpp"

namespace platoon::scen {

/// One fully-composed point of the product space, ready to feed a run grid.
struct CompiledCell {
    core::ScenarioConfig config;
    core::AttackKind attack = core::AttackKind::kReplay;
    bool with_attack = true;
    core::DefenseKind defense = kNoDefense;
    std::string fault = "none";  ///< Fault-preset name ("none" = fault-free).
    std::size_t seeds = 1;
    std::size_t grid = 0;  ///< Index of the grid that produced this cell.

    /// The coverage coordinate: "attack|defense|fault" (attacked cells
    /// only; clean baselines exercise no attack surface).
    [[nodiscard]] std::string coverage_key() const;
};

/// Composes a coverage key without a compiled cell (report tooling).
[[nodiscard]] std::string coverage_key(core::AttackKind attack,
                                       core::DefenseKind defense,
                                       std::string_view fault);

struct Description {
    std::string name;
    std::string title;
    std::string profile = "eval";
    std::uint64_t seed = 42;
    std::size_t grid_count = 0;
};

/// Parsed `overrides.stealth` block: the attacker-optimization experiment
/// the Table VI bench runs against the description's base config. scen sits
/// below security in the layering DAG, so the injection vocabulary is
/// mirrored here as validated strings (stealth_injection_names()) instead
/// of security::stealth::InjectionKind values; detect::stealth_spec_from()
/// lowers the block onto the concrete search spec, and a scen test pins the
/// two vocabularies equal so they cannot drift.
struct StealthOverrides {
    std::vector<std::string> injections;  ///< Validated injection names.
    std::size_t victim_index = 3;
    double start_s = 20.0;
    double horizon_s = 70.0;
    double amplitude_min = 0.5;
    double amplitude_max = 6.0;
    std::size_t amplitude_steps = 5;
    double ramp_min = 0.0;
    double ramp_max = 4.0;
    std::size_t ramp_steps = 2;
    double duty_min = 0.25;
    double duty_max = 1.0;
    std::size_t duty_steps = 4;
    double duty_period_s = 8.0;
    double onset_max_s = 2.0;
    std::size_t cem_iterations = 2;
    std::size_t cem_population = 12;
    std::size_t cem_elites = 4;
    std::size_t seeds = 1;  ///< Replication seeds per candidate.
};

/// The names `overrides.stealth.injections` accepts, mirroring
/// security::stealth::injection_names() (see StealthOverrides).
[[nodiscard]] std::vector<std::string> stealth_injection_names();

struct Compiled {
    Description description;
    std::vector<CompiledCell> cells;
    /// Present when the description carries an `overrides.stealth` block.
    std::optional<StealthOverrides> stealth;
};

/// Compiles a parsed description document. On failure returns nullopt and,
/// when `error` is non-null, stores one "json-path: message" diagnostic.
[[nodiscard]] std::optional<Compiled> compile(const obs::Json& doc,
                                              std::string* error);

/// Reads, parses and compiles `path`; errors are prefixed with the path.
[[nodiscard]] std::optional<Compiled> compile_file(const std::string& path,
                                                   std::string* error);

/// First cell matching the coordinates, or nullptr. The benches use this to
/// address their matrices by meaning instead of by raw index.
[[nodiscard]] const CompiledCell* find_cell(
    const std::vector<CompiledCell>& cells, core::AttackKind attack,
    bool with_attack, core::DefenseKind defense = kNoDefense,
    std::string_view fault = "none");

}  // namespace platoon::scen
