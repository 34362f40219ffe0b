#include "rules.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace platoonlint {

const char* const kRuleRandom = "no-unseeded-random";
const char* const kRuleWallclock = "no-wallclock";
const char* const kRuleSteadyClock = "no-steady-clock";
const char* const kRuleUnorderedIter = "no-unordered-iteration";
const char* const kRuleOracle = "oracle-isolation";
const char* const kRuleLayering = "layering";
const char* const kRuleCounterContract = "counter-contract";
const char* const kRuleStreamRegistry = "stream-registry";
const char* const kRuleScenarioNames = "scenario-names";
const char* const kRuleStaleSuppression = "stale-suppression";

const std::vector<RuleDoc>& all_rules() {
    static const std::vector<RuleDoc> kRules = {
        {kRuleRandom,
         "ambient entropy (C rand/srand, std::random_device) outside the "
         "seeding whitelist (src/sim/random.*) breaks run-to-run "
         "reproducibility"},
        {kRuleWallclock,
         "wall-clock reads (system_clock, C time APIs, __DATE__/__TIME__) "
         "make output depend on when it ran; use the simulation clock"},
        {kRuleSteadyClock,
         "steady_clock inside src/ leaks host timing into library code; perf "
         "timing goes through obs::ScopedTimer (src/obs/timer.cpp is the one "
         "sanctioned reader). bench/tests/examples/tools may read it freely"},
        {kRuleUnorderedIter,
         "iterating std::unordered_map/set in simulation (src/core, src/net), "
         "aggregation, scoring or report-emitting code makes decisions or "
         "bytes depend on hash order; extract+sort the keys or use std::map. "
         "Containers declared in a .cpp's own header count"},
        {kRuleOracle,
         "detectors and defenses must not read attack ground-truth "
         "(GroundTruth / *.truth / oracle_*); only detect/harness, "
         "detect/score and detect/dataset consume labels"},
        {kRuleLayering,
         "include crosses the module DAG (e.g. core must not include "
         "security/detect/eval, net must not include detect, crypto must "
         "not include sim)"},
        {kRuleCounterContract,
         "obs::Counter / timer names must be unique and dotted-lowercase, "
         "and every counter key in bench/baselines/*.json must exist in "
         "source; counters never exported to a baseline are noted"},
        {kRuleStreamRegistry,
         "every named sim::RandomStream must be declared in "
         "src/sim/streams.def; spelling a declared stream name outside its "
         "owner file is a collision (two subsystems drawing from one "
         "stream); unused manifest entries are findings"},
        {kRuleScenarioNames,
         "names in scenarios/*.json (attacks, defenses, faults, "
         "controllers, auth modes, profiles) must resolve against the scen "
         "registry, catching drift before runtime"},
        {kRuleStaleSuppression,
         "a platoonlint: allow() whose rule no longer fires at that site is "
         "itself a finding, keeping the suppression set honest"},
    };
    return kRules;
}

bool known_rule(const std::string& id) {
    if (id == "all") return true;
    for (const RuleDoc& r : all_rules())
        if (id == r.id) return true;
    return false;
}

namespace {

// ---------------------------------------------------------------------------
// Module layering allowlist. Key: module directory under src/. Value: the
// modules its files may include (transitively closed, checked per edge).

const std::map<std::string, std::set<std::string>>& layer_allow() {
    // obs sits directly above base: it must stay includable from every
    // instrumented module without dragging anything else along.
    static const std::map<std::string, std::set<std::string>> allow = {
        {"base", {"base"}},
        {"obs", {"obs", "base"}},
        {"sim", {"sim", "obs", "base"}},
        {"phys", {"phys", "sim", "obs", "base"}},
        {"crypto", {"crypto", "obs", "base"}},
        {"net", {"net", "crypto", "sim", "obs", "base"}},
        // fault sits beside the attack suite but below core: it may shape
        // the network and schedule, never reach into vehicles/defenses
        // directly (core hands it opaque hooks instead).
        {"fault", {"fault", "net", "crypto", "sim", "obs", "base"}},
        {"control", {"control", "net", "sim", "obs", "base"}},
        {"rsu", {"rsu", "crypto", "net", "sim", "obs", "base"}},
        {"defense",
         {"defense", "crypto", "net", "phys", "sim", "obs", "base"}},
        {"core",
         {"core", "control", "crypto", "defense", "fault", "net", "phys",
          "rsu", "sim", "obs", "base"}},
        // scen compiles declarative descriptions into ScenarioConfigs: it
        // sits directly above core but below security/eval -- a description
        // names attacks, it never instantiates or runs them.
        {"scen",
         {"scen", "core", "control", "crypto", "defense", "fault", "net",
          "phys", "rsu", "sim", "obs", "base"}},
        {"security",
         {"security", "core", "control", "crypto", "defense", "fault", "net",
          "phys", "rsu", "sim", "obs", "base"}},
        {"eval",
         {"eval", "scen", "security", "core", "control", "crypto", "defense",
          "fault", "net", "phys", "rsu", "sim", "obs", "base"}},
        {"detect",
         {"detect", "eval", "scen", "security", "core", "control", "crypto",
          "defense", "fault", "net", "phys", "rsu", "sim", "obs", "base"}},
    };
    return allow;
}

// ---------------------------------------------------------------------------
// Path scoping.

bool randomness_whitelisted(const std::string& rel) {
    // The seeding module: the one place allowed to talk about entropy
    // sources (it derives all streams from the scenario master seed).
    return starts_with(rel, "src/sim/random.");
}

bool unordered_iter_scoped(const std::string& rel) {
    // src/core and src/net run the simulation itself: a hash-ordered loop
    // there can steer a decision (a topology pick, an RNG draw order), not
    // just the bytes of a report.
    static const char* kPrefixes[] = {
        "src/core/",        "src/net/",           "src/detect/score",
        "src/detect/bank",  "src/detect/dataset", "src/eval/",
        "src/obs/",         "bench/",
    };
    for (const char* p : kPrefixes)
        if (starts_with(rel, p)) return true;
    return false;
}

bool oracle_scoped(const std::string& rel) {
    if (starts_with(rel, "src/defense/") ||
        starts_with(rel, "src/security/defense/"))
        return true;
    if (!starts_with(rel, "src/detect/")) return false;
    // Whitelisted oracle consumers: the harness stamps labels onto rows,
    // the scorer compares verdicts against them, the dataset serializes
    // them. Everything else in detect/ is a detector and must stay blind.
    static const char* kConsumers[] = {
        "src/detect/harness.", "src/detect/score.", "src/detect/dataset.",
    };
    for (const char* p : kConsumers)
        if (starts_with(rel, p)) return false;
    return true;
}

// ---------------------------------------------------------------------------
// Determinism rules: forbidden tokens.

struct TokenRule {
    const char* token;
    bool needs_call;  ///< Token must be followed by '(' to count.
    const char* rule;
    const char* what;
};

constexpr TokenRule kTokenRules[] = {
    {"rand", true, "no-unseeded-random", "C rand() is ambient global entropy"},
    {"srand", true, "no-unseeded-random", "C srand() reseeds global entropy"},
    {"rand_r", true, "no-unseeded-random", "rand_r() is unseeded C entropy"},
    {"random_device", false, "no-unseeded-random",
     "std::random_device draws nondeterministic entropy"},
    {"system_clock", false, "no-wallclock",
     "system_clock reads the wall clock"},
    {"time", true, "no-wallclock", "C time() reads the wall clock"},
    {"clock", true, "no-wallclock", "C clock() reads process time"},
    {"gettimeofday", true, "no-wallclock",
     "gettimeofday() reads the wall clock"},
    {"clock_gettime", true, "no-wallclock",
     "clock_gettime() reads a system clock"},
    {"localtime", true, "no-wallclock", "localtime() reads the wall clock"},
    {"gmtime", true, "no-wallclock", "gmtime() reads the wall clock"},
    {"__DATE__", false, "no-wallclock", "__DATE__ bakes build time in"},
    {"__TIME__", false, "no-wallclock", "__TIME__ bakes build time in"},
    {"__TIMESTAMP__", false, "no-wallclock",
     "__TIMESTAMP__ bakes build time in"},
    {"steady_clock", false, "no-steady-clock",
     "steady_clock reads host time inside library code"},
};

void check_tokens(const SourceFile& src, std::vector<Finding>& findings) {
    const bool whitelisted = randomness_whitelisted(src.rel);
    // The steady-clock ban covers library code only: benches, tests and
    // tools time things on purpose. Inside src/, the single sanctioned
    // reader (src/obs/timer.cpp) carries an inline reasoned allow.
    const bool library_tu = starts_with(src.rel, "src/");
    const std::string& text = src.stripped;
    for (const TokenRule& tr : kTokenRules) {
        if (whitelisted && std::string(tr.rule) == kRuleRandom) continue;
        if (!library_tu && std::string(tr.rule) == kRuleSteadyClock) continue;
        const std::string token = tr.token;
        std::size_t pos = 0;
        while ((pos = text.find(token, pos)) != std::string::npos) {
            const std::size_t hit = pos;
            pos += token.size();
            if (!word_at(text, hit, token)) continue;
            if (tr.needs_call) {
                const std::size_t after = skip_spaces(text, hit + token.size());
                if (after >= text.size() || text[after] != '(') continue;
            }
            findings.push_back({src.rel, src.line_of(hit), tr.rule,
                                std::string(tr.what) +
                                    "; derive everything from the scenario "
                                    "seed (sim::RandomStream) or the "
                                    "simulation clock"});
        }
    }
}

// ---------------------------------------------------------------------------
// Unordered-iteration rule.

/// Collects names declared in this file with an unordered container type
/// (members, locals, params -- anything spelled `std::unordered_xxx<...>
/// name`). Purely lexical: nested template args are matched by depth.
std::set<std::string> unordered_decl_names(const std::string& text) {
    std::set<std::string> names;
    for (const std::string intro : {"unordered_map", "unordered_set",
                                    "unordered_multimap",
                                    "unordered_multiset"}) {
        std::size_t pos = 0;
        while ((pos = text.find(intro, pos)) != std::string::npos) {
            const std::size_t hit = pos;
            pos += intro.size();
            if (!word_at(text, hit, intro)) continue;
            std::size_t i = skip_spaces(text, hit + intro.size());
            if (i >= text.size() || text[i] != '<') continue;
            int depth = 0;
            for (; i < text.size(); ++i) {
                if (text[i] == '<') ++depth;
                else if (text[i] == '>' && --depth == 0) { ++i; break; }
            }
            // Skip refs/pointers/cv/whitespace, then read the identifier.
            while (i < text.size() &&
                   (text[i] == '&' || text[i] == '*' || text[i] == ' ' ||
                    text[i] == '\t' || text[i] == '\n'))
                ++i;
            std::string name;
            while (i < text.size() && is_ident(text[i])) name += text[i++];
            if (!name.empty() && !(name[0] >= '0' && name[0] <= '9'))
                names.insert(name);
        }
    }
    return names;
}

std::vector<std::string> identifiers_in(const std::string& expr) {
    std::vector<std::string> out;
    std::string cur;
    for (const char c : expr) {
        if (is_ident(c)) {
            cur += c;
        } else if (!cur.empty()) {
            out.push_back(cur);
            cur.clear();
        }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
}

void check_unordered_iteration(const SourceFile& src,
                               const SourceFile* own_header,
                               std::vector<Finding>& findings) {
    if (!unordered_iter_scoped(src.rel)) return;
    const std::string& text = src.stripped;
    std::set<std::string> names = unordered_decl_names(text);
    // Members a .cpp iterates are usually declared in its own header.
    if (own_header != nullptr)
        names.merge(unordered_decl_names(own_header->stripped));

    const auto report = [&](std::size_t offset, const std::string& what) {
        findings.push_back(
            {src.rel, src.line_of(offset), kRuleUnorderedIter,
             what + " iterates in hash order, which is not stable across "
                    "standard libraries or table sizes and silently breaks "
                    "byte-identical output"});
    };

    // Range-for whose range expression names an unordered container (or
    // spells one inline).
    std::size_t pos = 0;
    while ((pos = text.find("for", pos)) != std::string::npos) {
        const std::size_t hit = pos;
        pos += 3;
        if (!word_at(text, hit, "for")) continue;
        std::size_t open = skip_spaces(text, hit + 3);
        if (open >= text.size() || text[open] != '(') continue;
        int depth = 0;
        std::size_t colon = std::string::npos, close = open;
        for (std::size_t i = open; i < text.size(); ++i) {
            if (text[i] == '(') ++depth;
            else if (text[i] == ')' && --depth == 0) { close = i; break; }
            else if (text[i] == ':' && depth == 1 &&
                     colon == std::string::npos) {
                const bool dbl = (i > 0 && text[i - 1] == ':') ||
                                 (i + 1 < text.size() && text[i + 1] == ':');
                if (!dbl) colon = i;
            }
        }
        if (colon == std::string::npos || close <= colon) continue;
        const std::string range = text.substr(colon + 1, close - colon - 1);
        bool bad = range.find("unordered_") != std::string::npos;
        std::string culprit;
        for (const std::string& id : identifiers_in(range)) {
            if (names.count(id) != 0) {
                bad = true;
                culprit = id;
                break;
            }
        }
        if (bad) {
            report(hit, "range-for over unordered container" +
                            (culprit.empty() ? std::string()
                                             : " `" + culprit + "`"));
        }
    }

    // Iterator-style access: name.begin() / name.cbegin() / std::begin(name).
    for (const std::string& name : names) {
        for (const std::string method : {".begin", ".cbegin"}) {
            const std::string pattern = name + method;
            std::size_t p = 0;
            while ((p = text.find(pattern, p)) != std::string::npos) {
                const std::size_t hit = p;
                p += pattern.size();
                if (hit > 0 && is_ident(text[hit - 1])) continue;
                const std::size_t after =
                    skip_spaces(text, hit + pattern.size());
                if (after >= text.size() || text[after] != '(') continue;
                report(hit, "iterator over unordered container `" + name + "`");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle-isolation rule.

void check_oracle(const SourceFile& src, std::vector<Finding>& findings) {
    if (!oracle_scoped(src.rel)) return;
    const std::string& text = src.stripped;
    struct OracleToken {
        const char* token;
        const char* what;
    };
    constexpr OracleToken kOracleTokens[] = {
        {"GroundTruth", "names the oracle label type"},
        {"truth", "reads the attack ground-truth label"},
        {"truth_label", "serializes the oracle label"},
    };
    for (const OracleToken& ot : kOracleTokens) {
        const std::string token = ot.token;
        std::size_t pos = 0;
        while ((pos = text.find(token, pos)) != std::string::npos) {
            const std::size_t hit = pos;
            pos += token.size();
            if (!word_at(text, hit, token)) continue;
            findings.push_back(
                {src.rel, src.line_of(hit), kRuleOracle,
                 "`" + token + "` " + ot.what +
                     "; detectors/defenses must stay blind to the oracle "
                     "(only detect/harness, detect/score, detect/dataset "
                     "may consume it)"});
        }
    }
    // oracle_* identifiers (prefix match).
    std::size_t pos = 0;
    while ((pos = text.find("oracle_", pos)) != std::string::npos) {
        const std::size_t hit = pos;
        pos += 7;
        if (hit > 0 && is_ident(text[hit - 1])) continue;
        findings.push_back({src.rel, src.line_of(hit), kRuleOracle,
                            "`oracle_*` identifier touches oracle state; "
                            "detectors/defenses must stay blind to it"});
    }
}

// ---------------------------------------------------------------------------
// Layering rule (include graph).

std::string module_of_rel(const std::string& rel) {
    if (!starts_with(rel, "src/")) return {};
    const std::size_t slash = rel.find('/', 4);
    if (slash == std::string::npos) return {};
    return rel.substr(4, slash - 4);
}

std::string module_of_include(const std::string& path) {
    const std::size_t slash = path.find('/');
    if (slash == std::string::npos) return {};
    const std::string mod = path.substr(0, slash);
    return layer_allow().count(mod) != 0 ? mod : std::string();
}

void check_layering(const SourceFile& src,
                    const std::vector<IncludeEdge>& includes,
                    std::vector<Finding>& findings) {
    const std::string mod = module_of_rel(src.rel);
    if (mod.empty()) return;  // bench/tests/examples/tools may include anything
    const auto allow_it = layer_allow().find(mod);
    if (allow_it == layer_allow().end()) return;  // unknown module: skip
    for (const IncludeEdge& inc : includes) {
        const std::string target = module_of_include(inc.path);
        if (target.empty() || allow_it->second.count(target) != 0) continue;
        findings.push_back(
            {src.rel, inc.line, kRuleLayering,
             "module `" + mod + "` must not include `" + target + "` (\"" +
                 inc.path + "\"); allowed from `" + mod + "`: everything at "
                 "or below its layer in the module DAG"});
    }
    // Oracle headers by name are off limits wherever the oracle rule
    // applies, independent of layer.
    if (oracle_scoped(src.rel)) {
        for (const IncludeEdge& inc : includes) {
            if (inc.path.find("oracle") != std::string::npos) {
                findings.push_back({src.rel, inc.line, kRuleOracle,
                                    "includes oracle header \"" + inc.path +
                                        "\""});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-TU helpers.

bool dotted_lowercase(const std::string& name) {
    int segments = 0;
    std::size_t seg_len = 0;
    for (const char c : name) {
        if (c == '.') {
            if (seg_len == 0) return false;
            ++segments;
            seg_len = 0;
        } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                   c == '_') {
            ++seg_len;
        } else {
            return false;
        }
    }
    return seg_len > 0 && segments >= 1;
}

std::string join_names(const std::set<std::string>& names) {
    std::string out;
    for (const std::string& n : names) {
        if (!out.empty()) out += ", ";
        out += n;
    }
    return out;
}

}  // namespace

void check_file(const SourceFile& src, const SourceFile* own_header,
                const std::vector<IncludeEdge>& includes,
                std::vector<Finding>& findings) {
    check_tokens(src, findings);
    check_unordered_iteration(src, own_header, findings);
    check_oracle(src, findings);
    check_layering(src, includes, findings);
}

// ---------------------------------------------------------------------------
// counter-contract.

void check_counter_contract(const NameIndex& index,
                            std::vector<Finding>& findings,
                            std::vector<Finding>& notes) {
    // Duplicates (counters and timers are separate obs registries, so
    // each namespace is checked on its own).
    for (const bool timers : {false, true}) {
        std::map<std::string, std::vector<const CounterDef*>> by_name;
        for (const CounterDef& c : index.counters)
            if (c.is_timer == timers) by_name[c.name].push_back(&c);
        for (const auto& [name, sites] : by_name) {
            if (sites.size() < 2) continue;
            for (const CounterDef* c : sites) {
                const CounterDef* other =
                    c == sites.front() ? sites.back() : sites.front();
                findings.push_back(
                    {c->site.file, c->site.line, kRuleCounterContract,
                     std::string(timers ? "timer" : "counter") + " name '" +
                         name + "' is defined " +
                         std::to_string(sites.size()) + " times (also at " +
                         other->site.file + ":" +
                         std::to_string(other->site.line) +
                         "); obs names key baseline artifacts and must be "
                         "unique"});
            }
        }
    }

    // Style: dotted-lowercase, at least two segments ("net.sent").
    for (const CounterDef& c : index.counters) {
        if (dotted_lowercase(c.name)) continue;
        findings.push_back(
            {c.site.file, c.site.line, kRuleCounterContract,
             std::string(c.is_timer ? "timer" : "counter") + " name '" +
                 c.name + "' is not dotted-lowercase "
                 "(expected `subsystem.metric`, e.g. net.sent, "
                 "crypto.verify.ok)"});
    }

    // Baseline contract: every counter key pinned by a baseline must
    // still exist in source, else the perf gate compares against ghosts.
    std::set<std::string> counter_names;
    for (const CounterDef& c : index.counters)
        if (!c.is_timer) counter_names.insert(c.name);
    for (const std::string& rel : index.malformed_baselines)
        findings.push_back({rel, 1, kRuleCounterContract,
                            "baseline is not valid JSON"});
    for (const BaselineKey& key : index.baseline_keys) {
        if (counter_names.count(key.name) != 0) continue;
        findings.push_back(
            {key.site.file, key.site.line, kRuleCounterContract,
             "baseline counter '" + key.name +
                 "' has no obs::Counter definition in source; the perf "
                 "gate would compare against a counter that can never "
                 "fire"});
    }

    // The reverse direction is advisory: a counter no baseline exports
    // is untracked by the perf gate (complements scenfuzz's never-fired
    // report). Notes, not findings -- new counters land before their
    // first baseline refresh.
    if (!index.baseline_keys.empty()) {
        std::set<std::string> exported;
        for (const BaselineKey& key : index.baseline_keys)
            exported.insert(key.name);
        for (const CounterDef& c : index.counters) {
            if (c.is_timer || exported.count(c.name) != 0) continue;
            notes.push_back({c.site.file, c.site.line, kRuleCounterContract,
                             "counter '" + c.name +
                                 "' is exported by no bench baseline; the "
                                 "perf gate does not track it"});
        }
    }
}

// ---------------------------------------------------------------------------
// stream-registry.

void check_stream_registry(const NameIndex& index, const fs::path& root,
                           std::vector<Finding>& findings) {
    const bool have_streams =
        !index.stream_uses.empty() || !index.stream_decls.empty();
    if (!have_streams) return;

    if (!index.manifest_found) {
        for (const StreamUse& use : index.stream_uses)
            findings.push_back(
                {use.site.file, use.site.line, kRuleStreamRegistry,
                 "named stream '" + use.name +
                     "' but src/sim/streams.def does not exist; commit the "
                     "stream manifest so name collisions are checkable"});
        return;
    }

    // Manifest well-formedness: prefix entries end in '.', owners exist,
    // no duplicate declarations.
    std::map<std::string, int> decl_lines;
    for (const StreamDecl& d : index.stream_decls) {
        if (d.is_prefix && (d.name.empty() || d.name.back() != '.'))
            findings.push_back(
                {index.manifest_rel, d.line, kRuleStreamRegistry,
                 "PLATOON_STREAM_PREFIX '" + d.name +
                     "' must end with '.' (it declares a name family)"});
        if (!d.is_prefix && !d.name.empty() && d.name.back() == '.')
            findings.push_back(
                {index.manifest_rel, d.line, kRuleStreamRegistry,
                 "PLATOON_STREAM '" + d.name +
                     "' ends with '.'; use PLATOON_STREAM_PREFIX for name "
                     "families"});
        const auto [it, inserted] = decl_lines.emplace(d.name, d.line);
        if (!inserted)
            findings.push_back(
                {index.manifest_rel, d.line, kRuleStreamRegistry,
                 "stream '" + d.name + "' is declared twice (also at line " +
                     std::to_string(it->second) + ")"});
        if (!fs::exists(root / d.owner))
            findings.push_back(
                {index.manifest_rel, d.line, kRuleStreamRegistry,
                 "owner file '" + d.owner + "' of stream '" + d.name +
                     "' does not exist; update the manifest entry"});
    }

    // Every named construction site must be declared.
    for (const StreamUse& use : index.stream_uses) {
        if (index.stream_declared(use.name)) continue;
        findings.push_back(
            {use.site.file, use.site.line, kRuleStreamRegistry,
             "stream '" + use.name +
                 "' is not declared in src/sim/streams.def; add a "
                 "PLATOON_STREAM entry (stream names are part of the "
                 "determinism contract -- never rename a committed one)"});
    }

    // Collision scan: a literal spelling a declared name outside its
    // owner file means a second subsystem can draw from the same stream.
    // A prefix entry also covers the prefix minus its trailing dot (the
    // base name id-suffixed builders pass around).
    for (const SrcLiteral& lit : index.src_literals) {
        for (const StreamDecl& d : index.stream_decls) {
            const bool matches =
                d.is_prefix ? (starts_with(lit.value, d.name) ||
                               lit.value + "." == d.name)
                            : lit.value == d.name;
            if (!matches || lit.site.file == d.owner) continue;
            findings.push_back(
                {lit.site.file, lit.site.line, kRuleStreamRegistry,
                 "literal \"" + lit.value + "\" spells stream '" + d.name +
                     "' owned by " + d.owner +
                     " (streams.def line " + std::to_string(d.line) +
                     "); two subsystems must not draw from one stream -- "
                     "declare a new name, or suppress if this string is "
                     "not a stream"});
        }
    }

    // Declared but never spelled anywhere: the manifest has rotted.
    for (const StreamDecl& d : index.stream_decls) {
        bool used = false;
        for (const SrcLiteral& lit : index.src_literals) {
            used = d.is_prefix ? (starts_with(lit.value, d.name) ||
                                  lit.value + "." == d.name)
                               : lit.value == d.name;
            if (used) break;
        }
        if (!used)
            findings.push_back(
                {index.manifest_rel, d.line, kRuleStreamRegistry,
                 "stream '" + d.name +
                     "' is declared but spelled nowhere in src/; remove "
                     "the manifest entry (do NOT recycle the name -- its "
                     "hash may still shape committed baselines)"});
    }
}

// ---------------------------------------------------------------------------
// scenario-names.

void check_scenario_names(const NameIndex& index,
                          std::vector<Finding>& findings) {
    const RegistryNames& reg = index.registry;
    for (const ScenarioNameUse& use : index.scenario_uses) {
        if (use.kind == "malformed") {
            findings.push_back({use.site.file, use.site.line,
                                kRuleScenarioNames,
                                "scenario description is not valid JSON"});
            continue;
        }
        const std::set<std::string>* names = nullptr;
        std::set<std::string> with_sentinels;
        if (use.kind == "profile") {
            names = &reg.profiles;
        } else if (use.kind == "attack") {
            if (reg.attacks.empty()) continue;
            with_sentinels = reg.attacks;
            with_sentinels.insert("all");
            names = &with_sentinels;
        } else if (use.kind == "defense") {
            if (reg.defenses.empty()) continue;
            with_sentinels = reg.defenses;
            with_sentinels.insert("none");
            with_sentinels.insert("all");
            names = &with_sentinels;
        } else if (use.kind == "controller") {
            names = &reg.controllers;
        } else if (use.kind == "auth-mode") {
            names = &reg.auth_modes;
        } else if (use.kind == "fault") {
            with_sentinels.insert(use.candidates.begin(),
                                  use.candidates.end());
            names = &with_sentinels;
        }
        if (names == nullptr || names->empty()) continue;
        if (names->count(use.value) != 0) continue;
        findings.push_back(
            {use.site.file, use.site.line, kRuleScenarioNames,
             "unknown " + use.kind + " '" + use.value +
                 "'; the registry resolves: " + join_names(*names)});
    }
}

// ---------------------------------------------------------------------------
// stale-suppression.

void check_stale_suppressions(
    const std::string& file,
    const std::map<int, std::vector<Suppression>>& sups,
    std::vector<Finding>& findings) {
    for (const auto& [line, list] : sups) {
        (void)line;
        for (const Suppression& s : list) {
            if (!known_rule(s.rule)) {
                findings.push_back(
                    {file, s.line, kRuleStaleSuppression,
                     "suppression names unknown rule '" + s.rule +
                         "'; see --list-rules for the vocabulary"});
            } else if (!s.used) {
                findings.push_back(
                    {file, s.line, kRuleStaleSuppression,
                     "stale suppression: rule '" + s.rule +
                         "' no longer fires here; delete the allow() so "
                         "the suppression set stays honest"});
            }
        }
    }
}

}  // namespace platoonlint
