// scenfuzz: coverage-driven scenario fuzzing over the compiled product
// space.
//
// The committed table benches only ever execute the cells their
// descriptions enumerate; the rest of the attack x defense x fault product
// space never runs on CI. scenfuzz closes that gap deterministically:
//
//   1. compile the space description (scenarios/fuzz_space.json) and the
//      committed bench descriptions, and compute which coverage cells
//      ("attack|defense|fault") have never run -- neither on a CI bench
//      pass nor in a previous scenfuzz ledger;
//   2. sample uncovered cells from a named sim::RandomStream until the
//      budget is exhausted, run them through eval::run_eval_grid (so the
//      sweep folds bit-identically at any PLATOON_JOBS), and print one
//      deterministic result line per cell;
//   3. print the coverage report (uncovered cells + obs counters that
//      never fired) and, with --ledger, persist the newly covered cells so
//      the next invocation fuzzes fresh ground.
//
// Everything on stdout is byte-deterministic in (descriptions, --seed,
// --budget); banners and progress go to stderr. Exit codes: 0 = ran (or
// validated) fine, 2 = bad usage / invalid description.
//
// Usage:
//   scenfuzz [--space FILE] [--ledger FILE] [--budget N] [--seed N]
//            [--smoke] [--report-json FILE]
//   scenfuzz --validate FILE...
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "eval/harness.hpp"
#include "obs/counters.hpp"
#include "obs/export.hpp"
#include "scen/coverage.hpp"
#include "scen/generator.hpp"
#include "scen/schema.hpp"

namespace pc = platoon::core;
namespace pe = platoon::eval;
namespace po = platoon::obs;
namespace ps = platoon::scen;

namespace {

/// Default directory of the committed descriptions; overridable so CI and
/// installed builds can relocate them.
std::string scenario_dir() {
    if (const char* env = std::getenv("PLATOON_SCENARIO_DIR");
        env != nullptr && *env != '\0')
        return env;
    return PLATOON_SCENARIO_DIR;
}

int usage(std::ostream& os, int code) {
    os << "usage: scenfuzz [--space FILE] [--ledger FILE] [--budget N]\n"
          "                [--seed N] [--smoke] [--report-json FILE]\n"
          "       scenfuzz --validate FILE...\n"
          "\n"
          "Runs never-covered attack|defense|fault cells of the scenario\n"
          "product space, deterministically in (--seed, --budget) and\n"
          "bit-identically at any PLATOON_JOBS. --validate only compiles\n"
          "the given descriptions and reports diagnostics.\n";
    return code;
}

/// The whole of `text` as a decimal count; nullopt when it is empty,
/// signed, has trailing junk or overflows.
std::optional<std::uint64_t> parse_count(std::string_view text) {
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || stop != end) return std::nullopt;
    return value;
}

int validate(const std::vector<std::string>& files) {
    bool ok = true;
    for (const std::string& file : files) {
        std::string error;
        const std::optional<ps::Compiled> compiled =
            ps::compile_file(file, &error);
        if (compiled) {
            std::cout << file << ": OK (" << compiled->cells.size()
                      << " cells, " << ps::coverage_keys(compiled->cells).size()
                      << " coverage keys)\n";
        } else {
            std::cout << file << ": ERROR: " << error << "\n";
            ok = false;
        }
    }
    return ok ? 0 : 2;
}

/// The descriptions whose cells run on every CI bench pass: anything they
/// enumerate is covered without scenfuzz lifting a finger.
const char* kBenchDescriptions[] = {"table2_threats", "table3_mitigations",
                                    "table_faults"};

}  // namespace

int main(int argc, char** argv) {
    std::string space_path = scenario_dir() + "/fuzz_space.json";
    std::string ledger_path;
    std::string report_json_path;
    std::size_t budget = 4;
    std::uint64_t seed = 1;
    bool validate_mode = false;
    std::vector<std::string> validate_files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
        if (arg == "--validate") {
            validate_mode = true;
        } else if (validate_mode) {
            validate_files.push_back(arg);
        } else if (arg == "--space") {
            const char* v = next();
            if (v == nullptr) return usage(std::cerr, 2);
            space_path = v;
        } else if (arg == "--ledger") {
            const char* v = next();
            if (v == nullptr) return usage(std::cerr, 2);
            ledger_path = v;
        } else if (arg == "--report-json") {
            const char* v = next();
            if (v == nullptr) return usage(std::cerr, 2);
            report_json_path = v;
        } else if (arg == "--budget") {
            const char* v = next();
            const auto n = v == nullptr ? std::nullopt : parse_count(v);
            if (!n) return usage(std::cerr, 2);
            budget = static_cast<std::size_t>(*n);
        } else if (arg == "--seed") {
            const char* v = next();
            const auto n = v == nullptr ? std::nullopt : parse_count(v);
            if (!n) return usage(std::cerr, 2);
            seed = *n;
        } else if (arg == "--smoke") {
            budget = 2;
        } else {
            std::cerr << "scenfuzz: unknown argument '" << arg << "'\n";
            return usage(std::cerr, 2);
        }
    }

    if (validate_mode) {
        if (validate_files.empty()) return usage(std::cerr, 2);
        return validate(validate_files);
    }

    // ------------------------------------------------------------------
    // Coverage state: the space universe, minus bench-covered cells, minus
    // whatever a previous ledger already ran.
    std::string error;
    const std::optional<ps::Compiled> space =
        ps::compile_file(space_path, &error);
    if (!space) {
        std::cerr << "scenfuzz: " << error << "\n";
        return 2;
    }

    ps::Coverage coverage;
    coverage.add_space(space->cells);
    for (const char* name : kBenchDescriptions) {
        const std::string path = scenario_dir() + "/" + name + ".json";
        const std::optional<ps::Compiled> bench =
            ps::compile_file(path, &error);
        if (!bench) {
            std::cerr << "scenfuzz: " << error << "\n";
            return 2;
        }
        coverage.mark_covered(bench->cells);
    }
    if (!ledger_path.empty() &&
        !coverage.merge_ledger_file(ledger_path, &error)) {
        std::cerr << "scenfuzz: " << error << "\n";
        return 2;
    }

    const std::set<std::string> uncovered_keys = [&coverage] {
        const std::vector<std::string> keys = coverage.uncovered();
        return std::set<std::string>(keys.begin(), keys.end());
    }();

    // The uncovered slice of the space, in enumeration order (the first
    // cell of each still-uncovered key represents it).
    std::vector<ps::CompiledCell> uncovered_cells;
    std::set<std::string> taken;
    for (const ps::CompiledCell& cell : space->cells) {
        if (!cell.with_attack) continue;
        const std::string key = cell.coverage_key();
        if (uncovered_keys.count(key) != 0 && taken.insert(key).second)
            uncovered_cells.push_back(cell);
    }

    const unsigned jobs = pc::default_jobs();
    std::cerr << "scenfuzz: space " << coverage.space_size() << " cells, "
              << uncovered_cells.size() << " uncovered, budget " << budget
              << ", seed " << seed << ", " << jobs << " worker thread(s)\n";

    po::set_enabled(true);
    po::reset_counters();

    const std::vector<ps::CompiledCell> picked =
        ps::sample_cells(uncovered_cells, budget, seed);
    std::vector<pe::EvalCell> grid;
    grid.reserve(picked.size());
    for (const ps::CompiledCell& cell : picked)
        grid.push_back({cell.config, cell.attack, cell.with_attack,
                        cell.seeds});
    const std::vector<pc::MetricMap> results = pe::run_eval_grid(grid, jobs);

    for (std::size_t i = 0; i < picked.size(); ++i) {
        const ps::CompiledCell& cell = picked[i];
        const pc::MetricMap& m = results[i];
        std::cout << "ran " << cell.coverage_key() << " seeds=" << cell.seeds
                  << " spacing_rms_m="
                  << pc::Table::num(pe::metric(m, "spacing_rms_m", 0.0), 3)
                  << " pdr=" << pc::Table::num(pe::metric(m, "pdr", 0.0), 3)
                  << " collisions="
                  << pc::Table::num(pe::metric(m, "collisions", 0.0), 0)
                  << "\n";
        coverage.mark_covered_key(cell.coverage_key());
    }

    coverage.print_report(std::cout, po::counter_snapshot());

    if (!ledger_path.empty()) {
        if (po::write_json_file(ledger_path, coverage.ledger_json())) {
            std::cerr << "scenfuzz: wrote ledger " << ledger_path << "\n";
        } else {
            std::cerr << "scenfuzz: FAILED to write ledger " << ledger_path
                      << "\n";
            return 2;
        }
    }
    if (!report_json_path.empty()) {
        if (!po::write_json_file(
                report_json_path,
                coverage.report_json(po::counter_snapshot()))) {
            std::cerr << "scenfuzz: FAILED to write report "
                      << report_json_path << "\n";
            return 2;
        }
        std::cerr << "scenfuzz: wrote report " << report_json_path << "\n";
    }
    return 0;
}
