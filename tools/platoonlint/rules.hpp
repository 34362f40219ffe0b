// platoonlint rules: per-file token rules (determinism, oracle isolation,
// layering) and the cross-TU name-contract rules that consume the index.
//
// Rule catalogue (ids are the suppression / --rules vocabulary):
//   no-unseeded-random, no-wallclock, no-steady-clock,
//   no-unordered-iteration, oracle-isolation, layering    -- per file
//   counter-contract, stream-registry, scenario-names,
//   stale-suppression                                     -- cross-TU
#pragma once

#include <string>
#include <tuple>
#include <vector>

#include "index.hpp"
#include "scanner.hpp"

namespace platoonlint {

extern const char* const kRuleRandom;
extern const char* const kRuleWallclock;
extern const char* const kRuleSteadyClock;
extern const char* const kRuleUnorderedIter;
extern const char* const kRuleOracle;
extern const char* const kRuleLayering;
extern const char* const kRuleCounterContract;
extern const char* const kRuleStreamRegistry;
extern const char* const kRuleScenarioNames;
extern const char* const kRuleStaleSuppression;

struct RuleDoc {
    const char* id;
    const char* doc;
};

const std::vector<RuleDoc>& all_rules();
bool known_rule(const std::string& id);

struct Finding {
    std::string file;  ///< Root-relative path.
    int line = 0;
    std::string rule;
    std::string message;

    friend bool operator<(const Finding& a, const Finding& b) {
        return std::tie(a.file, a.line, a.rule, a.message) <
               std::tie(b.file, b.line, b.rule, b.message);
    }
};

/// Runs every per-file rule on one translation unit. `own_header` is the
/// .cpp's header (same path, .hpp or .h) when one was loaded, else null.
void check_file(const SourceFile& src, const SourceFile* own_header,
                const std::vector<IncludeEdge>& includes,
                std::vector<Finding>& findings);

/// counter-contract: duplicate or badly-styled obs::Counter / timer
/// names, baseline counter keys with no definition in source, and (as
/// non-fatal `notes`) counters never exported to any baseline.
void check_counter_contract(const NameIndex& index,
                            std::vector<Finding>& findings,
                            std::vector<Finding>& notes);

/// stream-registry: every named stream use must be declared in
/// src/sim/streams.def; a literal spelling a declared name outside its
/// owner file is a collision; declared-but-never-used entries and
/// malformed manifest entries are findings too. `root` resolves the
/// owner-file existence check.
void check_stream_registry(const NameIndex& index, const fs::path& root,
                           std::vector<Finding>& findings);

/// scenario-names: names used by scenarios/*.json must resolve against
/// the scen registry (attacks, defenses, controllers, auth modes,
/// profiles, per-file fault presets). A check whose registry set is
/// empty is skipped -- a partial tree cannot prove a name wrong.
void check_scenario_names(const NameIndex& index,
                          std::vector<Finding>& findings);

/// stale-suppression: after every other rule has run (and marked the
/// suppressions it matched `used`), an allow() that matched nothing is
/// itself a finding, as is one naming a rule that does not exist.
void check_stale_suppressions(
    const std::string& file,
    const std::map<int, std::vector<Suppression>>& sups,
    std::vector<Finding>& findings);

}  // namespace platoonlint
