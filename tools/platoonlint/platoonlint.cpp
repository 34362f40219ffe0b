// platoonlint: the repo's custom static-analysis pass.
//
// The simulator's headline guarantees are invariants no unit test can fully
// protect as the tree grows, so this tool makes them mechanical:
//
//   1. Determinism. Results must be bit-identical for any PLATOON_JOBS and
//      across reruns, so ambient entropy (C rand, std::random_device) and
//      wall-clock reads are forbidden outside the seeding whitelist, and
//      aggregation / scoring / report-emitting code must never iterate a
//      hash-ordered container.
//   2. Oracle isolation. Detectors score against attack ground-truth labels
//      that ride along with every frame; a detector that *reads* the label
//      is cheating. Only the harness, the scorer and the dataset exporter
//      may touch oracle state.
//   3. Layering. The module DAG (base < sim < ... < core < security/eval <
//      detect) is enforced from the include graph.
//   4. Name contracts. obs::Counter names pinned by bench baselines,
//      sim::RandomStream names declared in src/sim/streams.def, and the
//      scen registry names that scenarios/*.json compile against are all
//      string-keyed cross-TU contracts; the name index (index.cpp) checks
//      them globally, and an allow() that matches nothing is itself a
//      finding (stale-suppression).
//
// Purely lexical by design (see scanner.cpp): no C++ parsing, stripped
// source text, sorted walks, sorted findings -- the tool is itself
// byte-deterministic. Genuine exceptions carry inline suppressions --
// an allow(<rule-id>) <reason> comment directive (prefixed with the tool
// name) on the finding line or the line above. A suppression without a reason
// does not suppress.
//
// The name index is always built from the FULL default tree under --root,
// regardless of which files are being linted: cross-TU findings for a file
// are identical whether it is linted alone, via --diff-base, or as part of
// the whole tree. Scoping only filters which findings are *reported*.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "index.hpp"
#include "report.hpp"
#include "rules.hpp"
#include "scanner.hpp"

namespace {

using namespace platoonlint;

struct Options {
    fs::path root = ".";
    std::vector<fs::path> paths;  ///< Explicit files/dirs; empty = default.
    bool json = false;
    bool fix_order_hints = false;
    std::string dump_graph;  ///< Non-empty: write include graph here.
    std::string sarif;       ///< Non-empty: write SARIF 2.1.0 here.
    std::string rules_csv;   ///< Non-empty: report only these rule ids.
    std::string diff_base;   ///< Non-empty: lint files changed since ref.
};

/// Which findings get reported. The index and the raw-finding pass always
/// cover the full tree; this is a pure output filter, which is what makes
/// file-list mode agree with whole-tree mode on shared files.
struct Scope {
    bool all = false;
    std::set<std::string> files;          ///< Exact root-relative paths.
    std::vector<std::string> dir_prefixes;  ///< "src/", "" = everything.

    [[nodiscard]] bool contains(const std::string& rel) const {
        if (all || files.count(rel) != 0) return true;
        for (const std::string& prefix : dir_prefixes)
            if (starts_with(rel, prefix)) return true;
        return false;
    }
};

int usage(const char* argv0) {
    std::cerr
        << "usage: " << argv0
        << " [--root <dir>] [--format=text|json] [--fix-order]\n"
           "       [--dump-graph <file>] [--sarif <file>] [--rules <csv>]\n"
           "       [--diff-base <ref>] [--list-rules] [paths...]\n\n"
           "Lints the platoon codebase for determinism, oracle-isolation,\n"
           "layering and name-contract invariants. With no paths, scans\n"
           "src/ bench/ examples/ tests/ tools/ under --root (default:\n"
           "cwd), excluding tests/lint/fixtures, plus the stream manifest\n"
           "(src/sim/streams.def), bench/baselines/*.json and\n"
           "scenarios/*.json. --diff-base lints only files git reports\n"
           "changed since <ref>; cross-TU context still comes from the\n"
           "whole tree.\n";
    return 2;
}

/// `git -C root diff --name-only base --`, one path per line. Returns
/// false when git fails (bad ref, not a repository).
bool git_changed_files(const fs::path& root, const std::string& base,
                       std::vector<std::string>& out) {
    const std::string cmd = "git -C '" + root.string() +
                            "' diff --name-only '" + base + "' -- 2>/dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return false;
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) text.append(buf, n);
    const int status = pclose(pipe);
    if (status != 0) return false;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        if (!line.empty()) out.push_back(line);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    bool list_rules = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            opt.root = argv[++i];
        } else if (arg == "--format=json") {
            opt.json = true;
        } else if (arg == "--format=text") {
            opt.json = false;
        } else if (arg == "--fix-order") {
            opt.fix_order_hints = true;
        } else if (arg == "--dump-graph" && i + 1 < argc) {
            opt.dump_graph = argv[++i];
        } else if (arg == "--sarif" && i + 1 < argc) {
            opt.sarif = argv[++i];
        } else if (arg == "--rules" && i + 1 < argc) {
            opt.rules_csv = argv[++i];
        } else if (arg == "--diff-base" && i + 1 < argc) {
            opt.diff_base = argv[++i];
        } else if (arg == "--list-rules") {
            list_rules = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            opt.paths.emplace_back(arg);
        }
    }

    if (list_rules) {
        for (const RuleDoc& r : all_rules())
            std::cout << r.id << "\n    " << r.doc << "\n";
        return 0;
    }

    std::set<std::string> rule_filter;
    if (!opt.rules_csv.empty()) {
        std::istringstream is(opt.rules_csv);
        std::string id;
        while (std::getline(is, id, ',')) {
            if (id.empty()) continue;
            if (!known_rule(id)) {
                std::cerr << "platoonlint: unknown rule in --rules: " << id
                          << "\n";
                return 2;
            }
            rule_filter.insert(id);
        }
    }

    std::error_code ec;
    const fs::path root = fs::absolute(opt.root, ec);
    if (ec || !fs::is_directory(root)) {
        std::cerr << "platoonlint: bad --root: " << opt.root << "\n";
        return 2;
    }

    // The index tree: every lintable file in the default directories.
    std::vector<fs::path> tree_files;
    for (const char* dir : {"src", "bench", "examples", "tests", "tools"}) {
        const fs::path d = root / dir;
        if (fs::is_directory(d))
            walk(d, root, /*exclude_fixtures=*/true, tree_files);
    }

    // Report scope, plus any scoped lintable files living outside the
    // default tree (fixture runs pass such files explicitly).
    Scope scope;
    std::vector<fs::path> extra_files;
    std::set<std::string> scoped_lintable;
    if (opt.paths.empty() && opt.diff_base.empty()) {
        scope.all = true;
        for (const fs::path& p : tree_files)
            scoped_lintable.insert(relative_to_root(p, root));
    }
    for (const fs::path& p : opt.paths) {
        if (fs::is_directory(p)) {
            std::string rel = relative_to_root(p, root);
            scope.dir_prefixes.push_back(rel == "." ? "" : rel + "/");
            std::vector<fs::path> walked;
            walk(p, root, /*exclude_fixtures=*/false, walked);
            for (const fs::path& f : walked) {
                const std::string frel = relative_to_root(f, root);
                scoped_lintable.insert(frel);
                extra_files.push_back(f);
            }
        } else if (fs::exists(p)) {
            const std::string rel = relative_to_root(p, root);
            scope.files.insert(rel);
            if (lintable(p)) {
                scoped_lintable.insert(rel);
                extra_files.push_back(p);
            }
        } else {
            std::cerr << "platoonlint: no such path: " << p << "\n";
            return 2;
        }
    }
    if (!opt.diff_base.empty()) {
        std::vector<std::string> changed;
        if (!git_changed_files(root, opt.diff_base, changed)) {
            std::cerr << "platoonlint: git diff --name-only "
                      << opt.diff_base << " failed under " << root << "\n";
            return 2;
        }
        for (const std::string& rel : changed) {
            const fs::path p = root / rel;
            if (!fs::exists(p)) continue;  // deleted since ref
            scope.files.insert(rel);
            if (lintable(p)) {
                scoped_lintable.insert(rel);
                extra_files.push_back(p);
            }
        }
    }

    // Load every source once: the full index tree plus scoped extras.
    std::map<std::string, SourceFile> sources;
    std::map<std::string, std::map<int, std::vector<Suppression>>> sups;
    std::map<std::string, std::vector<IncludeEdge>> includes;
    const auto load = [&](const fs::path& path) -> bool {
        const std::string rel = relative_to_root(path, root);
        if (sources.count(rel) != 0) return true;
        auto src = load_source(path, rel);
        if (!src) {
            std::cerr << "platoonlint: cannot read " << path << "\n";
            return false;
        }
        sups[rel] = collect_suppressions(*src);
        includes[rel] = collect_includes(*src);
        sources.emplace(rel, std::move(*src));
        return true;
    };
    for (const fs::path& p : tree_files)
        if (!load(p)) return 2;
    for (const fs::path& p : extra_files)
        if (!load(p)) return 2;

    // First pass: the cross-TU name index over everything loaded.
    NameIndex index;
    for (const auto& [rel, src] : sources) index_source(src, index);
    index_data_files(root, index);

    // Second pass: raw findings for the WHOLE tree (scoping is applied at
    // report time; the suppression `used` marks need global findings).
    std::vector<Finding> raw;
    std::vector<Finding> notes;
    const auto own_header = [&](const std::string& rel) -> const SourceFile* {
        const std::size_t dot = rel.rfind('.');
        if (dot == std::string::npos || rel.substr(dot) != ".cpp")
            return nullptr;
        for (const char* ext : {".hpp", ".h"}) {
            const auto it = sources.find(rel.substr(0, dot) + ext);
            if (it != sources.end()) return &it->second;
        }
        return nullptr;
    };
    for (const auto& [rel, src] : sources)
        check_file(src, own_header(rel), includes.at(rel), raw);
    check_counter_contract(index, raw, notes);
    check_stream_registry(index, root, raw);
    check_scenario_names(index, raw);

    std::vector<Finding> findings;
    for (Finding& f : raw) {
        const auto sup_it = sups.find(f.file);
        if (sup_it != sups.end()) {
            bool bare = false;
            if (suppressed(sup_it->second, f.line, f.rule, &bare)) continue;
            if (bare)
                notes.push_back({f.file, f.line, f.rule,
                                 "suppression ignored: missing reason"});
        }
        findings.push_back(std::move(f));
    }

    // Third pass: every suppression the raw findings never matched is
    // stale (or names a rule that does not exist). Not suppressible.
    for (const auto& [rel, file_sups] : sups)
        check_stale_suppressions(rel, file_sups, findings);

    // Report-time filters: scope, then --rules.
    const auto out_of_scope = [&](const Finding& f) {
        if (!scope.contains(f.file)) return true;
        return !rule_filter.empty() && rule_filter.count(f.rule) == 0;
    };
    findings.erase(
        std::remove_if(findings.begin(), findings.end(), out_of_scope),
        findings.end());
    notes.erase(std::remove_if(notes.begin(), notes.end(), out_of_scope),
                notes.end());

    std::sort(findings.begin(), findings.end());
    findings.erase(std::unique(findings.begin(), findings.end(),
                               [](const Finding& a, const Finding& b) {
                                   return !(a < b) && !(b < a);
                               }),
                   findings.end());
    std::sort(notes.begin(), notes.end());
    notes.erase(std::unique(notes.begin(), notes.end(),
                            [](const Finding& a, const Finding& b) {
                                return !(a < b) && !(b < a);
                            }),
                notes.end());

    if (!opt.dump_graph.empty()) {
        std::ostringstream graph;
        for (const std::string& rel : scoped_lintable)
            for (const IncludeEdge& inc : includes.at(rel))
                graph << rel << " -> " << inc.path << "\n";
        std::ofstream out(opt.dump_graph);
        out << graph.str();
        if (!out) {
            std::cerr << "platoonlint: cannot write " << opt.dump_graph
                      << "\n";
            return 2;
        }
    }

    if (!opt.sarif.empty() &&
        !write_sarif(opt.sarif, findings, notes)) {
        std::cerr << "platoonlint: cannot write " << opt.sarif << "\n";
        return 2;
    }

    if (opt.json) {
        print_json(findings);
    } else {
        print_text(findings, notes, scoped_lintable.size(),
                   opt.fix_order_hints);
    }
    return findings.empty() ? 0 : 1;
}
