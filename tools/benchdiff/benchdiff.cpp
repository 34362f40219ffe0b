// benchdiff: compares two BENCH_*.json artifacts (baseline vs candidate).
//
// Counters are the determinism contract and are compared for EXACT
// equality; any drift (value change, missing key, new key) is a counter
// mismatch. Timings live in the quarantined "timings_nondeterministic"
// section and are compared per-timer against a relative threshold on
// total_ms -- they gate only when the caller asks (CI runs --counters-only
// because shared runners make wall-clock advisory at best).
//
// Exit codes (the CI contract):
//   0  ok: counters identical, no timing regression over threshold
//   1  perf regression: counters identical, but a timer slowed past the
//      threshold (suppressed by --counters-only)
//   2  counter mismatch: the deterministic section drifted
//   3  usage or IO error (bad flags, unreadable/unparsable artifact, or
//      one that breaks schema v1 -- the message names the file and the
//      JSON Pointer of the offending value)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace {

using platoon::obs::Json;
using platoon::obs::push_pointer;

constexpr int kExitOk = 0;
constexpr int kExitPerfRegression = 1;
constexpr int kExitCounterMismatch = 2;
constexpr int kExitUsage = 3;

struct Options {
    std::string baseline_path;
    std::string candidate_path;
    double threshold = 0.25;  ///< Allowed relative slowdown on total_ms.
    bool counters_only = false;
    std::string format = "text";  ///< "text" or "json".
};

void usage(std::FILE* to) {
    std::fprintf(
        to,
        "usage: benchdiff [options] <baseline.json> <candidate.json>\n"
        "\n"
        "Compares two BENCH_*.json artifacts produced by the bench binaries.\n"
        "Counters must match exactly; timings are advisory unless they slow\n"
        "down by more than the relative threshold.\n"
        "\n"
        "options:\n"
        "  --threshold=<frac>   allowed relative slowdown on a timer's\n"
        "                       total_ms before it counts as a regression\n"
        "                       (default 0.25 = 25%%)\n"
        "  --counters-only      ignore timings entirely (CI on shared\n"
        "                       runners); only counter drift can fail\n"
        "  --format=text|json   delta report format (default text)\n"
        "  --help               this text\n"
        "\n"
        "exit codes: 0 ok, 1 perf regression, 2 counter mismatch,\n"
        "            3 usage/IO error\n");
}

std::optional<Options> parse_args(int argc, char** argv) {
    Options opt;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(kExitOk);
        } else if (arg == "--counters-only") {
            opt.counters_only = true;
        } else if (arg.rfind("--threshold=", 0) == 0) {
            try {
                opt.threshold = std::stod(arg.substr(12));
            } catch (...) {
                std::fprintf(stderr, "benchdiff: bad --threshold value: %s\n",
                             arg.c_str());
                return std::nullopt;
            }
            if (opt.threshold < 0.0) {
                std::fprintf(stderr,
                             "benchdiff: --threshold must be >= 0\n");
                return std::nullopt;
            }
        } else if (arg.rfind("--format=", 0) == 0) {
            opt.format = arg.substr(9);
            if (opt.format != "text" && opt.format != "json") {
                std::fprintf(stderr,
                             "benchdiff: --format must be text or json\n");
                return std::nullopt;
            }
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "benchdiff: unknown option: %s\n",
                         arg.c_str());
            return std::nullopt;
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2) {
        usage(stderr);
        return std::nullopt;
    }
    opt.baseline_path = positional[0];
    opt.candidate_path = positional[1];
    return opt;
}

std::optional<Json> load_artifact(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "benchdiff: cannot read %s\n", path.c_str());
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::optional<Json> json = Json::parse(buf.str());
    if (!json || !json->is_object()) {
        std::fprintf(stderr, "benchdiff: %s is not a JSON object\n",
                     path.c_str());
        return std::nullopt;
    }
    return json;
}

/// Checks an artifact against schema v1 (src/obs/export.hpp): the schema
/// version, a counter section of non-negative integers, and a timer section
/// whose entries carry numeric calls and total_ms. On the first violation
/// prints the file and the JSON Pointer of the offending value and returns
/// false.
bool check_schema(const Json& artifact, const std::string& path) {
    const auto reject = [&path](const std::string& pointer,
                                const std::string& expected) {
        std::fprintf(stderr, "benchdiff: %s: %s: expected %s\n", path.c_str(),
                     pointer.c_str(), expected.c_str());
        return false;
    };
    const Json& version = artifact.at("schema_version");
    if (!version.is_int() || version.as_int() != platoon::obs::kSchemaVersion)
        return reject("/schema_version",
                      std::to_string(platoon::obs::kSchemaVersion));
    const Json& counters = artifact.at("counters");
    if (!counters.is_object()) return reject("/counters", "an object");
    for (const auto& [name, value] : counters.as_object()) {
        if (value.is_int() && value.as_int() >= 0) continue;
        std::string pointer = "/counters";
        push_pointer(pointer, name);
        return reject(pointer, "a non-negative integer");
    }
    const std::string timings_pointer = "/timings_nondeterministic";
    const Json& timings = artifact.at("timings_nondeterministic");
    if (!timings.is_object()) return reject(timings_pointer, "an object");
    const std::string timers_pointer = timings_pointer + "/timers";
    const Json& timers = timings.at("timers");
    if (!timers.is_object()) return reject(timers_pointer, "an object");
    for (const auto& [timer, stat] : timers.as_object()) {
        std::string pointer = timers_pointer;
        push_pointer(pointer, timer);
        if (!stat.is_object()) return reject(pointer, "an object");
        for (const char* field : {"calls", "total_ms"}) {
            if (stat.at(field).is_number()) continue;
            push_pointer(pointer, field);
            return reject(pointer, "a number");
        }
    }
    return true;
}

/// One row of the delta report.
struct Delta {
    std::string kind;  ///< "counter" or "timer".
    std::string name;
    std::string status;  ///< "ok", "mismatch", "missing", "new", "regression".
    double baseline = 0.0;
    double candidate = 0.0;
    double rel_change = 0.0;  ///< (candidate - baseline) / baseline.
};

double rel_change(double baseline, double candidate) {
    if (baseline == 0.0) return candidate == 0.0 ? 0.0 : HUGE_VAL;
    return (candidate - baseline) / baseline;
}

/// Exact comparison of the counter objects. Returns true when identical.
bool diff_counters(const Json& base, const Json& cand,
                   std::vector<Delta>& deltas) {
    bool identical = true;
    const Json::Object& b = base.as_object();
    const Json::Object& c = cand.as_object();
    for (const auto& [name, bval] : b) {
        Delta d{"counter", name, "ok", bval.as_double(), 0.0, 0.0};
        const auto it = c.find(name);
        if (it == c.end()) {
            d.status = "missing";
            identical = false;
        } else {
            d.candidate = it->second.as_double();
            d.rel_change = rel_change(d.baseline, d.candidate);
            if (!(bval == it->second)) {
                d.status = "mismatch";
                identical = false;
            }
        }
        deltas.push_back(std::move(d));
    }
    for (const auto& [name, cval] : c) {
        if (b.contains(name)) continue;
        deltas.push_back(
            {"counter", name, "new", 0.0, cval.as_double(), 0.0});
        identical = false;
    }
    return identical;
}

/// Relative comparison of timer total_ms. Returns true when no timer slowed
/// down past the threshold. Missing/new timers are reported but advisory:
/// instrumentation churn is not a perf regression.
bool diff_timers(const Json& base, const Json& cand, double threshold,
                 std::vector<Delta>& deltas) {
    bool ok = true;
    const Json::Object& b = base.at("timers").as_object();
    const Json::Object& c = cand.at("timers").as_object();
    for (const auto& [path, bstat] : b) {
        const double base_ms = bstat.at("total_ms").as_double();
        Delta d{"timer", path, "ok", base_ms, 0.0, 0.0};
        const auto it = c.find(path);
        if (it == c.end()) {
            d.status = "missing";
        } else {
            d.candidate = it->second.at("total_ms").as_double();
            d.rel_change = rel_change(d.baseline, d.candidate);
            if (d.rel_change > threshold) {
                d.status = "regression";
                ok = false;
            }
        }
        deltas.push_back(std::move(d));
    }
    for (const auto& [path, cstat] : c) {
        if (b.contains(path)) continue;
        deltas.push_back({"timer", path, "new", 0.0,
                          cstat.at("total_ms").as_double(), 0.0});
    }
    return ok;
}

void print_text(const Options& opt, const std::vector<Delta>& deltas,
                int exit_code) {
    std::printf("benchdiff: %s vs %s\n", opt.baseline_path.c_str(),
                opt.candidate_path.c_str());
    std::printf("%-8s %-36s %-11s %14s %14s %9s\n", "kind", "name", "status",
                "baseline", "candidate", "change");
    for (const Delta& d : deltas) {
        char change[32];
        if (std::isinf(d.rel_change)) {
            std::snprintf(change, sizeof change, "inf");
        } else {
            std::snprintf(change, sizeof change, "%+.1f%%",
                          d.rel_change * 100.0);
        }
        std::printf("%-8s %-36s %-11s %14.3f %14.3f %9s\n", d.kind.c_str(),
                    d.name.c_str(), d.status.c_str(), d.baseline, d.candidate,
                    change);
    }
    const char* verdict = exit_code == kExitOk             ? "OK"
                          : exit_code == kExitPerfRegression
                              ? "PERF REGRESSION"
                              : "COUNTER MISMATCH";
    std::printf("benchdiff: %s\n", verdict);
}

void print_json(const Options& opt, const std::vector<Delta>& deltas,
                int exit_code) {
    Json rows = Json::array();
    for (const Delta& d : deltas) {
        Json row = Json::object();
        row.set("kind", Json::string(d.kind));
        row.set("name", Json::string(d.name));
        row.set("status", Json::string(d.status));
        row.set("baseline", Json::number(d.baseline));
        row.set("candidate", Json::number(d.candidate));
        row.set("rel_change", Json::number(std::isinf(d.rel_change)
                                               ? -1.0
                                               : d.rel_change));
        rows.as_array().push_back(std::move(row));
    }
    Json out = Json::object();
    out.set("baseline", Json::string(opt.baseline_path));
    out.set("candidate", Json::string(opt.candidate_path));
    out.set("counters_only", Json::boolean(opt.counters_only));
    out.set("deltas", std::move(rows));
    out.set("exit_code", Json::integer(exit_code));
    out.set("threshold", Json::number(opt.threshold));
    std::printf("%s", out.dump().c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const std::optional<Options> opt = parse_args(argc, argv);
    if (!opt) return kExitUsage;

    const std::optional<Json> baseline = load_artifact(opt->baseline_path);
    const std::optional<Json> candidate = load_artifact(opt->candidate_path);
    if (!baseline || !candidate) return kExitUsage;

    if (!check_schema(*baseline, opt->baseline_path) ||
        !check_schema(*candidate, opt->candidate_path))
        return kExitUsage;

    std::vector<Delta> deltas;
    const bool counters_identical = diff_counters(
        baseline->at("counters"), candidate->at("counters"), deltas);
    bool timings_ok = true;
    if (!opt->counters_only) {
        timings_ok = diff_timers(
            baseline->at("timings_nondeterministic"),
            candidate->at("timings_nondeterministic"), opt->threshold,
            deltas);
    }

    int exit_code = kExitOk;
    if (!timings_ok) exit_code = kExitPerfRegression;
    if (!counters_identical) exit_code = kExitCounterMismatch;

    if (opt->format == "json") {
        print_json(*opt, deltas, exit_code);
    } else {
        print_text(*opt, deltas, exit_code);
    }
    return exit_code;
}
