// platoon_perf: the repository's end-to-end benchmark program.
//
// Runs one workload on one thread, in one process, through the library's
// public entry points only, and writes a JSON report for perfbench/run.py:
//
//   corridor         the clean cell of scenarios/scale_corridor.json
//                    (64 platoons x 16 vehicles + 2 RSUs), stepped with
//                    Scenario::run_until in 100 ms simulated steps;
//   corridor_jammed  the description's jammed cell, with the jammer on
//                    from t = 0 (JammingAttack::Params::window);
//   mitigation_grid  the Table III grid of scenarios/table3_mitigations.json,
//                    one eval::run_eval call per replication.
//
// Set-up (scenario compile, world build, attack attach; on the grid compile
// plus cell expansion) is repeated and timed apart from the timed phase. The
// timed phase runs whole passes (one corridor horizon, or every grid
// replication) until the --seconds budget would be exceeded, at least one.
// Every pass must reproduce the first pass's digest of simulated statistics.
// Host times are reported at the reference speed of a gauge that runs
// between measured units (gauge.hpp), with the raw times beside them.
//
// Untraced (default): obs stays off and the report carries the end-to-end
// metrics. Traced (--trace): obs is on, every public call is a span (see
// spans.hpp), and the report carries the per-layer metrics.
//
//   platoon_perf --workload corridor --seed 42 --seconds 30
//                --scenario-dir scenarios --report out.json [--trace]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "core/taxonomy.hpp"
#include "eval/harness.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/timer.hpp"
#include "scen/registry.hpp"
#include "scen/schema.hpp"
#include "security/attacks/jamming.hpp"
#include "gauge.hpp"
#include "spans.hpp"

namespace {

namespace pc = platoon::core;
namespace pe = platoon::eval;
namespace ps = platoon::scen;
namespace sec = platoon::security;
using platoon::obs::Json;
using perfbench::Gauge;
using perfbench::Timing;
using perfbench::Tracer;

constexpr double kStepS = 0.1;  ///< Simulated time per corridor step.

enum class Workload { kCorridor, kCorridorJammed, kGrid };

struct Options {
    Workload workload = Workload::kCorridor;
    std::string workload_name;
    std::uint64_t seed = 42;
    double seconds = 10.0;    ///< Host-time budget of the timed phase.
    bool trace = false;
    std::string scenario_dir = "scenarios";
    std::string report_path;  ///< Required: where the JSON report goes.
    std::string spans_path;   ///< Traced runs: where the spans go.
    double horizon_s = 30.0;  ///< Corridor simulated horizon per pass.
    std::size_t setups = 0;   ///< Repeated set-ups; 0 = workload default.
    std::size_t max_cells = 0;       ///< Grid: first N cells; 0 = all.
    bool single_call = false;        ///< Corridor: one run_until per pass.
    long long throw_replication = -1;  ///< Grid self-test: this one throws.
};

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "platoon_perf: " << problem << "\n"
              << "usage: platoon_perf --workload corridor|corridor_jammed|"
                 "mitigation_grid --report FILE [--seed N] [--seconds S] "
                 "[--trace] [--spans FILE] [--scenario-dir DIR] "
                 "[--horizon-s S] [--setups N] [--cells N] [--single-call] "
                 "[--throw-replication K]\n";
    std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
    std::size_t used = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used != text.size() || !std::isfinite(value) || value < 0.0)
        usage(flag + " needs a non-negative number, got '" + text + "'");
    return value;
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 18)
        usage(flag + " needs a whole number, got '" + text + "'");
    return std::stoull(text);
}

Options parse_options(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") {
            opt.workload_name = value();
        } else if (flag == "--seed") {
            opt.seed = parse_count(flag, value());
        } else if (flag == "--seconds") {
            opt.seconds = parse_number(flag, value());
        } else if (flag == "--trace") {
            opt.trace = true;
        } else if (flag == "--scenario-dir") {
            opt.scenario_dir = value();
        } else if (flag == "--report") {
            opt.report_path = value();
        } else if (flag == "--spans") {
            opt.spans_path = value();
        } else if (flag == "--horizon-s") {
            opt.horizon_s = parse_number(flag, value());
        } else if (flag == "--setups") {
            opt.setups = parse_count(flag, value());
        } else if (flag == "--cells") {
            opt.max_cells = parse_count(flag, value());
        } else if (flag == "--single-call") {
            opt.single_call = true;
        } else if (flag == "--throw-replication") {
            opt.throw_replication =
                static_cast<long long>(parse_count(flag, value()));
        } else {
            usage("unknown argument '" + flag + "'");
        }
    }
    if (opt.workload_name == "corridor") {
        opt.workload = Workload::kCorridor;
    } else if (opt.workload_name == "corridor_jammed") {
        opt.workload = Workload::kCorridorJammed;
    } else if (opt.workload_name == "mitigation_grid") {
        opt.workload = Workload::kGrid;
    } else {
        usage("unknown workload '" + opt.workload_name + "'");
    }
    if (opt.report_path.empty()) usage("--report is required");
    if (opt.horizon_s < kStepS) usage("--horizon-s must be at least 0.1");
    if (opt.setups == 0)
        opt.setups = opt.workload == Workload::kGrid ? 101 : 21;
    return opt;
}

// ---------------------------------------------------------------------------
// Statistics helpers.

double seconds_of(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Linear-interpolation percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
    return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

/// This process's peak resident set (VmHWM). getrusage's ru_maxrss is no
/// use here: Linux carries the launcher's peak across fork and exec.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Exact text for a digest value: integers stay integers, doubles keep
/// every digit (%.17g round-trips).
std::string exact(double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::uint64_t fnv1a(const std::vector<std::string>& lines) {
    std::uint64_t hash = 1469598103934665603ULL;
    for (const std::string& line : lines) {
        for (const char c : line) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 1099511628211ULL;
        }
        hash ^= '\n';
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::string hex(std::uint64_t value) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/// Finiteness and range invariants every summary must hold. Returns the
/// first violation, or an empty string.
std::string check_summary(const pc::MetricMap& m, const std::string& where) {
    const bool has_gap = pe::metric(m, "has_gap_samples") != 0.0;
    for (const auto& [name, value] : m) {
        if (std::isfinite(value)) continue;
        if (name == "min_gap_m" && std::isnan(value) && !has_gap) continue;
        return where + ": " + name + " is not finite (" + exact(value) + ")";
    }
    const double pdr = pe::metric(m, "pdr", -1.0);
    if (!(pdr >= 0.0 && pdr <= 1.0))
        return where + ": pdr " + exact(pdr) + " outside [0, 1]";
    return "";
}

// ---------------------------------------------------------------------------
// What a run measured.

struct Measured {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;  ///< Failed operations, broken invariants.
    bool invariant_broken = false;

    // Set-up phase, one entry per set-up.
    std::vector<Timing> setups;
    std::vector<Timing> compiles;  ///< scen::compile_file.
    std::vector<Timing> builds;    ///< World build plus attack attach.
    double rss_after_build_mb = 0.0;

    // Timed phase. A replication is a corridor pass (its steps and its
    // summarize) or one grid run_eval call.
    std::vector<std::vector<Timing>> replications;
    std::vector<Timing> steps;      ///< Corridor steps, all passes.
    std::vector<Timing> summaries;  ///< Corridor summarize, per pass.
    std::vector<bool> signed_mode;  ///< Grid, per replication.
    double cacc_availability = 0.0;
    std::size_t passes = 0;
    double sim_s = 0.0;  ///< Simulated seconds over the timed phase.

    std::vector<std::string> digest;  ///< First pass; later passes must match.
    std::vector<std::string> digest_shown;  ///< The part printed on stdout.
    std::int32_t first_pass_span = -1;

    void fail_invariant(std::string why) {
        errors.push_back(std::move(why));
        invariant_broken = true;
    }
};

/// Reads timings in seconds: as raw host time, or (with a gauge) as host
/// time at the gauge's reference speed.
class Scale {
public:
    explicit Scale(const Gauge* gauge) : gauge_(gauge) {}

    [[nodiscard]] double s(const Timing& t) const {
        return gauge_ != nullptr ? gauge_->reference_s(t) : seconds_of(t.ns);
    }
    [[nodiscard]] double sum_s(const std::vector<Timing>& ts) const {
        double sum = 0.0;
        for (const Timing& t : ts) sum += s(t);
        return sum;
    }
    [[nodiscard]] std::vector<double> each_s(const std::vector<Timing>& ts,
                                             double unit = 1.0) const {
        std::vector<double> out;
        out.reserve(ts.size());
        for (const Timing& t : ts) out.push_back(s(t) * unit);
        return out;
    }
    [[nodiscard]] std::vector<double> replications_s(const Measured& m) const {
        std::vector<double> out;
        for (const auto& pieces : m.replications) out.push_back(sum_s(pieces));
        return out;
    }
    [[nodiscard]] double timed_s(const Measured& m) const {
        double sum = 0.0;
        for (const auto& pieces : m.replications) sum += sum_s(pieces);
        return sum;
    }

private:
    const Gauge* gauge_;
};

/// Compiles scenarios/<name>.json; a rejected description is a set-up
/// failure, not a benchmark result.
ps::Compiled compile(const Options& opt, const char* name) {
    std::string error;
    std::optional<ps::Compiled> compiled =
        ps::compile_file(opt.scenario_dir + "/" + name + ".json", &error);
    if (!compiled) throw std::runtime_error("scenario rejected: " + error);
    return std::move(*compiled);
}

/// The workload seed replaces the description's base seed; per-cell and
/// per-replication offsets from it are kept.
std::uint64_t reseed(std::uint64_t cell_seed, const ps::Compiled& compiled,
                     const Options& opt) {
    return cell_seed - compiled.description.seed + opt.seed;
}

/// True when another corridor pass as long as the last one would overrun
/// the run's host-time budget (--seconds).
bool budget_spent(const Options& opt, const Measured& m) {
    const Scale raw(nullptr);
    return raw.timed_s(m) + raw.sum_s(m.replications.back()) > opt.seconds;
}

// ---------------------------------------------------------------------------
// Corridors.

struct World {
    std::unique_ptr<pc::Scenario> scenario;
    /// Declared after the scenario: an attack must die before its world.
    std::unique_ptr<sec::JammingAttack> jammer;

    void tear_down() {
        jammer.reset();
        scenario.reset();
    }
};

World set_up_corridor(const Options& opt, Tracer& tracer, const Gauge& gauge,
                      std::uint32_t run, Measured& out) {
    const bool jammed = opt.workload == Workload::kCorridorJammed;
    Tracer::Scope setup(tracer, "setup", run);
    Tracer::Scope compile_span(tracer, "scen.compile", run);
    const ps::Compiled compiled = compile(opt, "scale_corridor");
    out.compiles.push_back(gauge.stamp(compile_span.stop()));

    const ps::CompiledCell* cell =
        ps::find_cell(compiled.cells, pc::AttackKind::kJamming, jammed);
    if (cell == nullptr)
        throw std::runtime_error("scale_corridor has no jamming cell");
    pc::ScenarioConfig config = cell->config;
    config.seed = reseed(config.seed, compiled, opt);

    World world;
    std::int64_t build_ns = 0;
    {
        Tracer::Scope build(tracer, "core.build", run);
        world.scenario = std::make_unique<pc::Scenario>(std::move(config));
        build_ns += build.stop();
    }
    if (jammed) {
        Tracer::Scope attach(tracer, "security.attach", run);
        sec::JammingAttack::Params params;
        params.window.start_s = 0.0;  // on for the whole timed run
        world.jammer = std::make_unique<sec::JammingAttack>(params);
        world.jammer->attach(*world.scenario);
        build_ns += attach.stop();
    }
    out.builds.push_back(gauge.stamp(build_ns));
    if (out.rss_after_build_mb == 0.0) out.rss_after_build_mb = peak_rss_mb();
    out.setups.push_back(gauge.stamp(setup.stop()));
    return world;
}

std::vector<std::string> corridor_digest(pc::Scenario& scenario,
                                         const pc::MetricMap& summary) {
    const auto& stats = scenario.network().stats();
    std::vector<std::string> lines = {
        "sim.now_s " + exact(scenario.scheduler().now()),
        "sim.events " + std::to_string(scenario.scheduler().executed()),
        "net.sent " + std::to_string(stats.sent),
        "net.delivered " + std::to_string(stats.delivered),
        "net.dropped.per " + std::to_string(stats.dropped_per),
        "net.dropped.mac " + std::to_string(stats.dropped_mac),
        "net.dropped.half_duplex " + std::to_string(stats.dropped_half_duplex),
        "net.dropped.range " + std::to_string(stats.dropped_range),
        "net.dropped.fault " + std::to_string(stats.dropped_fault),
    };
    for (const auto& [name, value] : summary)
        lines.push_back("summary." + name + " " + exact(value));
    return lines;
}

/// One pass: step the world to the horizon, summarize, check, digest. The
/// gauge runs after every tenth step and after summarize. Returns false
/// when a step threw (the run stops there).
bool corridor_pass(const Options& opt, World& world, Tracer& tracer,
                   Gauge& gauge, std::uint32_t run, Measured& out) {
    pc::Scenario& scenario = *world.scenario;
    const auto steps = opt.single_call
                           ? std::size_t{1}
                           : static_cast<std::size_t>(
                                 std::llround(opt.horizon_s / kStepS));
    out.attempted += steps;

    std::vector<Timing> pieces;
    Tracer::Scope pass(tracer, "pass", run);
    if (out.first_pass_span < 0 && tracer.recording())
        out.first_pass_span = static_cast<std::int32_t>(tracer.spans().size()) - 1;
    for (std::size_t k = 1; k <= steps; ++k) {
        const double until =
            k == steps ? opt.horizon_s : static_cast<double>(k) * kStepS;
        {
            Tracer::Scope step(tracer, "core.step", run);
            try {
                scenario.run_until(until);
            } catch (const std::exception& e) {
                out.failed += steps - k + 1;
                out.errors.push_back("step to t=" + exact(until) +
                                     " threw: " + e.what());
                return false;
            }
            pieces.push_back(gauge.stamp(step.stop()));
        }
        if (k % 10 == 0 && k != steps) gauge.sample();
    }
    pc::MetricMap summary;
    {
        Tracer::Scope summarize(tracer, "core.summarize", run);
        summary = scenario.summarize().as_map();
        out.summaries.push_back(gauge.stamp(summarize.stop()));
    }
    pass.stop();
    gauge.sample();

    out.steps.insert(out.steps.end(), pieces.begin(), pieces.end());
    pieces.push_back(out.summaries.back());
    out.replications.push_back(std::move(pieces));
    out.passes += 1;
    out.sim_s += opt.horizon_s;

    const std::string where = "pass " + std::to_string(out.passes);
    if (scenario.scheduler().now() != opt.horizon_s)
        out.fail_invariant(where + ": clock at " +
                           exact(scenario.scheduler().now()) +
                           " s, not at the horizon");
    if (std::string why = check_summary(summary, where); !why.empty())
        out.fail_invariant(why);
    if (opt.workload == Workload::kCorridor &&
        pe::metric(summary, "collisions") != 0.0)
        out.fail_invariant(where + ": clean corridor had " +
                           exact(pe::metric(summary, "collisions")) +
                           " collisions");

    std::vector<std::string> digest = corridor_digest(scenario, summary);
    if (out.digest.empty()) {
        out.digest_shown = digest;
        out.digest = std::move(digest);
        out.cacc_availability = pe::metric(summary, "cacc_availability");
    } else if (digest != out.digest) {
        out.fail_invariant(where + ": digest differs from pass 1");
    }
    return true;
}

void run_corridor(const Options& opt, Tracer& tracer, Gauge& gauge,
                  Measured& out) {
    // Repeated identical set-ups, each between two gauge samples; the last
    // one's world runs the first pass. A pass shares its world's run id.
    World world;
    std::uint32_t run = 0;
    gauge.sample_from_memory();
    for (std::size_t i = 0; i < opt.setups; ++i) {
        world.tear_down();
        run = static_cast<std::uint32_t>(i);
        world = set_up_corridor(opt, tracer, gauge, run, out);
        gauge.sample_from_memory();
    }
    for (;;) {
        if (!corridor_pass(opt, world, tracer, gauge, run, out)) return;
        if (budget_spent(opt, out)) return;
        world.tear_down();
        world = set_up_corridor(opt, tracer, gauge, ++run, out);
        gauge.sample_from_memory();
    }
}

// ---------------------------------------------------------------------------
// The Table III grid.

struct Replication {
    std::size_t cell = 0;
    pc::ScenarioConfig config;
    pc::AttackKind kind = pc::AttackKind::kReplay;
    bool with_attack = false;
    bool signed_mode = false;  ///< Runs with signature authentication.
};

struct Grid {
    ps::Compiled compiled;
    std::vector<Replication> replications;
};

Grid set_up_grid(const Options& opt, Tracer& tracer, const Gauge& gauge,
                 std::uint32_t run, Measured& out) {
    Tracer::Scope setup(tracer, "setup", run);
    Grid grid;
    {
        Tracer::Scope compile_span(tracer, "scen.compile", run);
        grid.compiled = compile(opt, "table3_mitigations");
        out.compiles.push_back(gauge.stamp(compile_span.stop()));
    }
    Tracer::Scope expand(tracer, "expand", run);
    std::vector<ps::CompiledCell>& cells = grid.compiled.cells;
    if (opt.max_cells != 0 && opt.max_cells < cells.size())
        cells.resize(opt.max_cells);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const ps::CompiledCell& cell = cells[c];
        const std::uint64_t base = reseed(cell.config.seed, grid.compiled, opt);
        // eval runs impersonation rows on a signed baseline.
        const bool signed_mode =
            cell.config.security.auth_mode ==
                platoon::crypto::AuthMode::kSignature ||
            cell.attack == pc::AttackKind::kImpersonation;
        for (std::size_t k = 0; k < cell.seeds; ++k) {
            Replication rep{c, cell.config, cell.attack, cell.with_attack,
                            signed_mode};
            rep.config.seed = base + k;
            grid.replications.push_back(std::move(rep));
        }
    }
    expand.stop();
    out.setups.push_back(gauge.stamp(setup.stop()));
    return grid;
}

/// Per-cell seed means of every metric, in cell order; a cell with a failed
/// replication digests as failed. `shown` gets one headline line per cell.
std::vector<std::string> grid_digest(
    const Grid& grid, const std::vector<std::optional<pc::MetricMap>>& results,
    std::vector<std::string>& shown) {
    const auto& cells = grid.compiled.cells;
    std::vector<pc::MetricMap> sums(cells.size());
    std::vector<std::size_t> seen(cells.size(), 0);
    std::vector<bool> failed(cells.size(), false);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::size_t c = grid.replications[i].cell;
        if (!results[i]) {
            failed[c] = true;
            continue;
        }
        seen[c] += 1;
        for (const auto& [name, value] : *results[i]) sums[c][name] += value;
    }
    std::vector<std::string> lines;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const std::string id = "cell." + std::to_string(c);
        if (failed[c]) {
            lines.push_back(id + " failed");
            shown.push_back(lines.back());
            continue;
        }
        for (auto& [name, value] : sums[c])
            value /= static_cast<double>(seen[c]);
        const pe::Headline headline = pe::headline_for(cells[c].attack);
        lines.push_back(id + " " + pc::to_string(cells[c].attack) + "|" +
                        (cells[c].with_attack ? "attacked" : "clean") + "|" +
                        ps::defense_name(cells[c].defense) + " " +
                        headline.metric + "=" +
                        exact(pe::metric(sums[c], headline.metric)));
        shown.push_back(lines.back());
        for (const auto& [name, value] : sums[c])
            lines.push_back(id + "." + name + " " + exact(value));
    }
    return lines;
}

void run_grid(const Options& opt, Tracer& tracer, Gauge& gauge,
              Measured& out) {
    // The gauge runs between set-ups and after every replication. Run ids:
    // set-ups 0..K-1, the pass K, replication i K+1+i.
    std::optional<Grid> grid;
    gauge.sample_from_memory();
    for (std::size_t i = 0; i < opt.setups; ++i) {
        grid = set_up_grid(opt, tracer, gauge, static_cast<std::uint32_t>(i),
                           out);
        gauge.sample_from_memory();
    }
    const auto run = static_cast<std::uint32_t>(opt.setups);

    std::vector<double> availability;
    for (std::size_t pass_index = 0;; ++pass_index) {
        const std::size_t n = grid->replications.size();
        out.attempted += n;
        std::vector<std::optional<pc::MetricMap>> results(n);
        {
            Tracer::Scope pass(tracer, "pass", run);
            if (out.first_pass_span < 0 && tracer.recording())
                out.first_pass_span =
                    static_cast<std::int32_t>(tracer.spans().size()) - 1;
            for (std::size_t i = 0; i < n; ++i) {
                const Replication& rep = grid->replications[i];
                {
                    Tracer::Scope span(tracer, "eval.replication",
                                       run + 1 + static_cast<std::uint32_t>(i));
                    try {
                        if (pass_index == 0 &&
                            static_cast<long long>(i) == opt.throw_replication)
                            throw std::runtime_error(
                                "injected by --throw-replication");
                        results[i] = pe::run_eval(rep.config, rep.kind,
                                                  rep.with_attack, 1, 1);
                    } catch (const std::exception& e) {
                        out.failed += 1;
                        out.errors.push_back("replication " +
                                             std::to_string(i) +
                                             " threw: " + e.what());
                    }
                    out.replications.push_back({gauge.stamp(span.stop())});
                }
                gauge.sample();
                out.signed_mode.push_back(rep.signed_mode);
                if (results[i]) {
                    availability.push_back(
                        pe::metric(*results[i], "cacc_availability"));
                    const std::string why = check_summary(
                        *results[i], "replication " + std::to_string(i));
                    if (!why.empty()) out.fail_invariant(why);
                }
            }
        }
        out.passes += 1;
        out.sim_s += static_cast<double>(n) * pe::kEvalDuration;

        std::vector<std::string> shown;
        std::vector<std::string> digest = grid_digest(*grid, results, shown);
        if (out.digest.empty()) {
            out.digest_shown = std::move(shown);
            out.digest = std::move(digest);
        } else if (digest != out.digest) {
            out.fail_invariant("pass " + std::to_string(out.passes) +
                               ": digest differs from pass 1");
        }
        if (out.failed != 0) break;
        // Budget by whole passes: compare against the pass just run.
        const Scale raw(nullptr);
        double pass_s = 0.0;
        for (std::size_t i = out.replications.size() - n;
             i < out.replications.size(); ++i)
            pass_s += raw.sum_s(out.replications[i]);
        if (raw.timed_s(out) + pass_s > opt.seconds) break;
    }
    out.cacc_availability = mean(availability);
}

// ---------------------------------------------------------------------------
// Reporting.

/// Adds one metric to `metrics` and prints it as "<prefix> <name> <value>
/// <unit>".
void put(Json& metrics, const char* prefix, const char* name, double value,
         const char* unit) {
    Json entry = Json::object();
    entry.set("value", std::string_view(unit) == "count"
                           ? Json::integer(static_cast<std::int64_t>(value))
                           : Json::number(value));
    entry.set("unit", Json::string(unit));
    metrics.set(name, std::move(entry));
    std::cout << prefix << " " << name << " " << exact(value) << " " << unit
              << "\n";
}

bool is_corridor(const Options& opt) { return opt.workload != Workload::kGrid; }

/// The end-to-end metrics, with host time read through `scale`.
Json end_to_end_metrics(const Measured& m, const Scale& scale,
                        const char* prefix) {
    const std::vector<double> replications = scale.replications_s(m);
    Json metrics = Json::object();
    put(metrics, prefix, "sim_rate", m.sim_s / scale.timed_s(m), "s/s");
    put(metrics, prefix, "setup_s", median(scale.each_s(m.setups)), "s");
    put(metrics, prefix, "peak_rss_mb", peak_rss_mb(), "MB");
    put(metrics, prefix, "replication_p50_s", percentile(replications, 0.5),
        "s");
    put(metrics, prefix, "replication_p90_s", percentile(replications, 0.9),
        "s");
    return metrics;
}

std::uint64_t delta(const perfbench::Span* pass, const char* name) {
    if (pass == nullptr) return 0;
    const auto it = pass->counters.find(name);
    return it == pass->counters.end() ? 0 : it->second;
}

/// Total of every timer path whose last scope is `name` (obs paths nest:
/// "sim.run/net.deliver", "eval.run_once/sim.run/net.deliver", ...).
double timer_ms(const std::map<std::string, platoon::obs::TimerStat>& timers,
                const std::string& name) {
    std::uint64_t ns = 0;
    for (const auto& [path, stat] : timers) {
        const std::size_t slash = path.rfind('/');
        const std::string leaf =
            slash == std::string::npos ? path : path.substr(slash + 1);
        if (leaf == name) ns += stat.total_ns;
    }
    return static_cast<double>(ns) * 1e-6;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of a traced run, host times at the gauge's reference
/// speed (the library's obs timers scaled by the timed phase's ratio).
/// Counts are per pass (every pass does identical work). A metric whose
/// boundary the workload never crosses reads 0.
Json per_layer_metrics(const Options& opt, const Measured& m,
                       const Tracer& tracer, const Scale& scale,
                       const std::map<std::string, platoon::obs::TimerStat>& timers) {
    const perfbench::Span* pass =
        m.first_pass_span >= 0
            ? &tracer.spans()[static_cast<std::size_t>(m.first_pass_span)]
            : nullptr;
    const bool corridor = is_corridor(opt);
    const double passes = static_cast<double>(std::max<std::size_t>(m.passes, 1));
    const double timed_s = scale.timed_s(m);
    const double to_reference = ratio(timed_s, Scale(nullptr).timed_s(m));
    auto count = [&](const char* name) {
        return static_cast<double>(delta(pass, name));
    };
    std::vector<double> unsigned_s, signed_s;
    for (std::size_t i = 0; i < m.signed_mode.size(); ++i)
        (m.signed_mode[i] ? signed_s : unsigned_s)
            .push_back(scale.sum_s(m.replications[i]));

    Json metrics = Json::object();
    const char* p = "metric";
    put(metrics, p, "scen.compile_ms", median(scale.each_s(m.compiles, 1e3)),
        "ms");
    put(metrics, p, "core.build_ms",
        corridor ? median(scale.each_s(m.builds, 1e3)) : 0.0, "ms");
    put(metrics, p, "core.rss_after_build_mb",
        corridor ? m.rss_after_build_mb : 0.0, "MB");
    put(metrics, p, "core.step_p50_ms",
        percentile(scale.each_s(m.steps, 1e3), 0.5), "ms");
    put(metrics, p, "core.step_p90_ms",
        percentile(scale.each_s(m.steps, 1e3), 0.9), "ms");
    put(metrics, p, "core.summarize_ms",
        median(scale.each_s(m.summaries, 1e3)), "ms");
    put(metrics, p, "eval.replication_unsigned_s", mean(unsigned_s), "s");
    put(metrics, p, "eval.replication_signed_s", mean(signed_s), "s");

    const double events = count("sim.events_executed");
    put(metrics, p, "sim.events", events, "count");
    put(metrics, p, "sim.ns_per_event", ratio(timed_s * 1e9, events * passes),
        "ns");

    const double sent = count("net.sent");
    const double delivered = count("net.delivered");
    const double per = count("net.dropped.per");
    const double mac = count("net.dropped.mac");
    const double half_duplex = count("net.dropped.half_duplex");
    const double fault = count("net.dropped.fault");
    put(metrics, p, "net.sent", sent, "count");
    put(metrics, p, "net.delivered", delivered, "count");
    put(metrics, p, "net.fanout", ratio(delivered, sent), "ratio");
    put(metrics, p, "net.dropped.per", per, "count");
    put(metrics, p, "net.dropped.mac", mac, "count");
    put(metrics, p, "net.dropped.half_duplex", half_duplex, "count");
    put(metrics, p, "net.pdr",
        ratio(delivered, delivered + per + mac + half_duplex + fault), "ratio");
    put(metrics, p, "net.deliver_ms",
        timer_ms(timers, "net.deliver") * to_reference / passes, "ms");

    put(metrics, p, "crypto.sign", count("crypto.sign"), "count");
    put(metrics, p, "crypto.verify.ok", count("crypto.verify.ok"), "count");
    put(metrics, p, "crypto.verify.cached", count("crypto.verify.cached"),
        "count");
    put(metrics, p, "crypto.verify.batched", count("crypto.verify.batched"),
        "count");
    put(metrics, p, "crypto.verify.fail", count("crypto.verify.fail"), "count");
    const double hit = count("crypto.verdict_cache.hit");
    const double miss = count("crypto.verdict_cache.miss");
    put(metrics, p, "crypto.verdict_cache.hit_ratio", ratio(hit, hit + miss),
        "ratio");
    put(metrics, p, "crypto.verify_ms",
        timer_ms(timers, "crypto.verify") * to_reference / passes, "ms");

    put(metrics, p, "control.cacc_availability", m.cacc_availability, "ratio");
    return metrics;
}

int run(const Options& opt) {
    Tracer tracer(opt.trace);
    Gauge gauge;
    platoon::obs::set_enabled(opt.trace);
    platoon::obs::reset_counters();
    platoon::obs::reset_timers();

    Measured m;
    try {
        if (is_corridor(opt)) {
            run_corridor(opt, tracer, gauge, m);
        } else {
            run_grid(opt, tracer, gauge, m);
        }
    } catch (const std::exception& e) {
        // Set-up failed: there is no result to report.
        std::cerr << "platoon_perf: " << e.what() << "\n";
        return 2;
    }
    const auto timers = platoon::obs::timer_snapshot();
    platoon::obs::set_enabled(false);

    if (m.invariant_broken) m.failed = m.attempted;
    const bool correct = m.failed == 0 && !m.invariant_broken;
    const Scale raw(nullptr);
    const Scale reference(&gauge);

    std::cout << "platoon_perf: workload " << opt.workload_name << ", seed "
              << opt.seed << ", " << (opt.trace ? "traced" : "untraced")
              << ", " << m.setups.size() << " set-ups, " << m.passes
              << " timed pass(es): " << exact(m.sim_s) << " s simulated in "
              << exact(raw.timed_s(m)) << " s host ("
              << exact(reference.timed_s(m)) << " s at reference speed; "
              << "gauge median " << exact(median(std::vector<double>(
                                        gauge.samples().begin(),
                                        gauge.samples().end())) * 1e-6)
              << " ms over " << gauge.samples().size() << " samples)\n";
    if (!is_corridor(opt))
        std::cout << "replications: "
                  << std::count(m.signed_mode.begin(), m.signed_mode.end(),
                                false)
                  << " unsigned, "
                  << std::count(m.signed_mode.begin(), m.signed_mode.end(),
                                true)
                  << " signed\n";
    for (const std::string& line : m.digest_shown)
        std::cout << "digest " << line << "\n";
    const std::string digest = hex(fnv1a(m.digest));
    std::cout << "digest.hash " << digest << "\n";
    for (const std::string& error : m.errors)
        std::cerr << "platoon_perf: " << error << "\n";

    Json report = Json::object();
    report.set("workload", Json::string(opt.workload_name));
    report.set("seed", Json::integer(static_cast<std::int64_t>(opt.seed)));
    report.set("trace", Json::boolean(opt.trace));
    report.set("correct", Json::boolean(correct));
    report.set("attempted", Json::integer(static_cast<std::int64_t>(m.attempted)));
    report.set("failed", Json::integer(static_cast<std::int64_t>(m.failed)));
    Json errors = Json::array();
    for (const std::string& error : m.errors)
        errors.as_array().push_back(Json::string(error));
    report.set("errors", std::move(errors));
    report.set("passes", Json::integer(static_cast<std::int64_t>(m.passes)));
    report.set("sim_s", Json::number(m.sim_s));
    report.set("timed_s", Json::number(raw.timed_s(m)));
    report.set("timed_reference_s", Json::number(reference.timed_s(m)));
    report.set("digest", Json::string(digest));
    if (opt.trace) {
        report.set("metrics",
                   per_layer_metrics(opt, m, tracer, reference, timers));
    } else {
        report.set("metrics", end_to_end_metrics(m, reference, "metric"));
        report.set("raw_metrics", end_to_end_metrics(m, raw, "raw"));
    }
    std::cout << "attempted " << m.attempted << " failed " << m.failed
              << " failed_ratio "
              << exact(ratio(static_cast<double>(m.failed),
                             static_cast<double>(m.attempted)))
              << "\n";

    std::ofstream(opt.report_path) << report.dump(0);
    if (opt.trace && !opt.spans_path.empty() &&
        !tracer.write_json(opt.spans_path)) {
        std::cerr << "platoon_perf: could not write " << opt.spans_path << "\n";
        return 2;
    }
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_options(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "platoon_perf: " << e.what() << "\n";
        return 2;
    }
}
