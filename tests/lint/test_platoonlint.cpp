// Tests for tools/platoonlint: each fixture under tests/lint/fixtures/
// seeds exactly the violations its comments claim, the suppressed fixture
// lints clean, and the real tree is clean (the CI contract). The binary is
// exercised end-to-end -- exit codes are part of the interface.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace fs = std::filesystem;

namespace {

struct RunResult {
    int exit_code = -1;
    std::string output;
};

RunResult run_lint(const std::string& args) {
    const std::string cmd =
        std::string(PLATOONLINT_BIN) + " " + args + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    RunResult r;
    if (pipe == nullptr) return r;
    std::array<char, 4096> buf{};
    std::size_t n = 0;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        r.output.append(buf.data(), n);
    const int status = pclose(pipe);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

std::string fixture(const std::string& rel) {
    return std::string(LINT_FIXTURE_DIR) + "/" + rel;
}

std::string fixture_args(const std::string& rel) {
    return "--root " + std::string(LINT_FIXTURE_DIR) + " " + fixture(rel);
}

}  // namespace

TEST(Platoonlint, FlagsUnseededRandomness) {
    const RunResult r = run_lint(fixture_args("src/sim/entropy.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/sim/entropy.cpp:7: error: "
                            "[no-unseeded-random]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("src/sim/entropy.cpp:11: error: "
                            "[no-unseeded-random]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("2 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, FlagsWallClockReads) {
    const RunResult r = run_lint(fixture_args("src/core/wallclock.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/core/wallclock.cpp:6: error: "
                            "[no-wallclock]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("src/core/wallclock.cpp:11: error: "
                            "[no-wallclock]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("src/core/wallclock.cpp:15: error: "
                            "[no-wallclock]"),
              std::string::npos)
        << r.output;
    // The steady_clock read is its own rule; runtime( is not time(.
    EXPECT_NE(r.output.find("src/core/wallclock.cpp:20: error: "
                            "[no-steady-clock]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("4 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, FlagsSteadyClockInLibraryCode) {
    const RunResult r = run_lint(fixture_args("src/net/steady_probe.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/net/steady_probe.cpp:7: error: "
                            "[no-steady-clock]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, SanctionedObsTimerLintsClean) {
    const RunResult r =
        run_lint(fixture_args("src/obs/timer_sanctioned.cpp"));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("1 files clean"), std::string::npos) << r.output;
}

TEST(Platoonlint, FlagsUnorderedIterationInReportScope) {
    const RunResult r =
        run_lint(fixture_args("src/core/metrics_hash_order.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/core/metrics_hash_order.cpp:13: error: "
                            "[no-unordered-iteration]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("src/core/metrics_hash_order.cpp:20: error: "
                            "[no-unordered-iteration]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("2 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, FlagsUnorderedMemberDeclaredInOwnHeader) {
    // The member is declared in jammer_table.hpp and iterated in
    // jammer_table.cpp: the rule reads a .cpp's own header for names.
    const RunResult r = run_lint(fixture_args("src/net/jammer_table.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/net/jammer_table.cpp:7: error: "
                            "[no-unordered-iteration] range-for over "
                            "unordered container `power_mw_`"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, FixOrderModePrintsSortedKeyHint) {
    const RunResult r = run_lint(
        "--fix-order " + fixture_args("src/core/metrics_hash_order.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("hint: extract the keys, sort"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("std::sort(keys.begin(), keys.end())"),
              std::string::npos)
        << r.output;
}

TEST(Platoonlint, FlagsOracleReadInDetector) {
    const RunResult r =
        run_lint(fixture_args("src/detect/cheating_detector.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/detect/cheating_detector.cpp:12: error: "
                            "[oracle-isolation]"),
              std::string::npos)
        << r.output;
}

TEST(Platoonlint, FlagsLayeringViolation) {
    const RunResult r = run_lint(fixture_args("src/core/bad_layering.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/core/bad_layering.cpp:3: error: "
                            "[layering]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("`core` must not include `security`"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, FlagsFaultLayeringViolation) {
    // The fault layer drives vehicles through opaque hooks; a direct
    // include of the vehicle model is the exact coupling the DAG forbids.
    const RunResult r = run_lint(fixture_args("src/fault/bad_layering.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/fault/bad_layering.cpp:5: error: "
                            "[layering]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("`fault` must not include `core`"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, FlagsScenLayeringViolation) {
    // The scenario compiler composes configs and names attacks; running
    // them belongs to eval, one layer up.
    const RunResult r = run_lint(fixture_args("src/scen/bad_layering.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/scen/bad_layering.cpp:5: error: "
                            "[layering]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("`scen` must not include `eval`"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, JustifiedSuppressionSilencesFinding) {
    const RunResult r =
        run_lint(fixture_args("src/detect/suppressed_detector.cpp"));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("1 files clean"), std::string::npos) << r.output;
}

TEST(Platoonlint, BareSuppressionDoesNotSuppress) {
    const RunResult r =
        run_lint(fixture_args("src/detect/bare_suppression.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("note: [oracle-isolation] suppression ignored: "
                            "missing reason"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("src/detect/bare_suppression.cpp:13: error: "
                            "[oracle-isolation]"),
              std::string::npos)
        << r.output;
}

TEST(Platoonlint, JsonOutputIsMachineReadable) {
    const RunResult r = run_lint("--format=json " +
                                 fixture_args("src/core/bad_layering.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("\"rule\": \"layering\""), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"line\": 3"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("\"count\": 1"), std::string::npos) << r.output;
}

TEST(Platoonlint, WholeFixtureTreeCountsEverySeededViolation) {
    const RunResult r =
        run_lint("--root " + std::string(LINT_FIXTURE_DIR) + " " +
                 std::string(LINT_FIXTURE_DIR));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // entropy(2) + wallclock(3+1 steady) + unordered(2) + header-declared
    // unordered member(1) + cheating(2: decl + read) + layering(1) + fault
    // layering(1) + scen layering(1) + bare_suppression(2: decl + read) +
    // steady_probe(1) = 17 per-file, plus the cross-TU set: dup counter(2
    // sites) + counter style(1) + baseline ghost(1) + stream collision(1) +
    // undeclared stream(1) + unused manifest entry(1) + unknown scenario
    // attack(1) + stale suppression(1) + unknown-rule suppression(1) = 10,
    // total 27. The justified suppressions in suppressed_detector.cpp and
    // timer_sanctioned.cpp contribute none.
    EXPECT_NE(r.output.find("27 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, FlagsDuplicateCounterAtBothSites) {
    // Linting ONE file still surfaces the cross-TU duplicate: the name
    // index always covers the full tree, scope only filters the report.
    const RunResult r = run_lint(fixture_args("src/obs/dup_counter_a.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/obs/dup_counter_a.cpp:12: error: "
                            "[counter-contract]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("also at src/obs/dup_counter_b.cpp:11"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, FlagsCounterStyleDrift) {
    const RunResult r =
        run_lint(fixture_args("src/obs/bad_counter_style.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/obs/bad_counter_style.cpp:12: error: "
                            "[counter-contract]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("not dotted-lowercase"), std::string::npos)
        << r.output;
}

TEST(Platoonlint, FlagsBaselineCounterWithNoDefinition) {
    const RunResult r =
        run_lint(fixture_args("bench/baselines/BENCH_fixture.json"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(
        r.output.find("bench/baselines/BENCH_fixture.json:5: error: "
                      "[counter-contract]"),
        std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("'fixture.ghost' has no obs::Counter"),
              std::string::npos)
        << r.output;
}

TEST(Platoonlint, BenchTuCountersSatisfyTheBaselineContract) {
    // The bench_scale pattern: per-tier counters are registered in the
    // bench TU itself (bench/bench_counters.cpp), and net.arena.* lives in
    // src/net/. Both kinds must resolve -- only the deliberate ghost key
    // may fire, so the fixture baseline yields exactly one finding.
    const RunResult r =
        run_lint(fixture_args("bench/baselines/BENCH_fixture.json"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(r.output.find("'bench_scale.tier1.events'"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("'bench_table6.fixture.best_impact_mm'"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("'net.arena.alloc'"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("'net.arena.reuse'"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, StealthStreamOwnerLintsClean) {
    // The stealth-search pattern: a src/security/ file that owns one
    // manifest stream. Declared and spelled by exactly its owner, so both
    // the owner file and the manifest entry must pass the stream-registry
    // rule (the manifest's only finding stays the seeded fixture.unused).
    const RunResult r =
        run_lint(fixture_args("src/security/stealth_probe.cpp"));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("1 files clean"), std::string::npos) << r.output;
}

TEST(Platoonlint, FlagsStreamNameCollisionFromSingleFile) {
    // The collision is cross-TU (owner lives in src/sim/) but must be
    // reported even when only the colliding file is linted.
    const RunResult r =
        run_lint(fixture_args("src/net/colliding_stream.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/net/colliding_stream.cpp:12: error: "
                            "[stream-registry]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("owned by src/sim/stream_owner.cpp"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, FlagsUndeclaredStreamName) {
    const RunResult r =
        run_lint(fixture_args("src/net/undeclared_stream.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/net/undeclared_stream.cpp:11: error: "
                            "[stream-registry]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(
        r.output.find("'fixture.rogue' is not declared in "
                      "src/sim/streams.def"),
        std::string::npos)
        << r.output;
}

TEST(Platoonlint, FlagsDeclaredButUnusedManifestEntry) {
    const RunResult r = run_lint(fixture_args("src/sim/streams.def"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/sim/streams.def:7: error: "
                            "[stream-registry]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("'fixture.unused' is declared but spelled "
                            "nowhere"),
              std::string::npos)
        << r.output;
}

TEST(Platoonlint, FlagsUnknownScenarioName) {
    const RunResult r =
        run_lint(fixture_args("scenarios/unknown_attack.json"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("scenarios/unknown_attack.json:4: error: "
                            "[scenario-names]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("unknown attack 'time-travel'"),
              std::string::npos)
        << r.output;
    // The resolvable vocabulary comes from the fixture registry switch.
    EXPECT_NE(r.output.find("replay, sybil"), std::string::npos) << r.output;
}

TEST(Platoonlint, FlagsStaleAndUnknownRuleSuppressions) {
    const RunResult r = run_lint(fixture_args("src/obs/stale_allow.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/obs/stale_allow.cpp:5: error: "
                            "[stale-suppression]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("rule 'no-wallclock' no longer fires here"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("src/obs/stale_allow.cpp:10: error: "
                            "[stale-suppression]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("unknown rule 'not-a-rule'"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("2 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, RulesFlagRestrictsReportedRules) {
    const RunResult r = run_lint("--rules no-wallclock " +
                                 fixture_args("src/core/wallclock.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // The steady_clock read at :20 is a different rule and must be muted.
    EXPECT_EQ(r.output.find("no-steady-clock"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("3 finding(s)"), std::string::npos) << r.output;
}

TEST(Platoonlint, UnknownRuleIdExitsTwo) {
    const RunResult r = run_lint("--rules definitely-not-a-rule --root " +
                                 std::string(LINT_FIXTURE_DIR));
    EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(Platoonlint, SarifOutputHasSchemaShape) {
    const std::string sarif_path =
        ::testing::TempDir() + "platoonlint_test.sarif";
    const RunResult r = run_lint("--sarif " + sarif_path + " " +
                                 fixture_args("src/core/bad_layering.cpp"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    std::ifstream in(sarif_path);
    ASSERT_TRUE(in.good()) << sarif_path;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string sarif = buf.str();
    EXPECT_NE(sarif.find("\"$schema\""), std::string::npos);
    EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"platoonlint\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"layering\""), std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/core/bad_layering.cpp\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
    // Every rule is documented in the driver block, findings or not.
    EXPECT_NE(sarif.find("\"id\": \"stream-registry\""), std::string::npos);
    std::remove(sarif_path.c_str());
}

namespace {

// Error lines mentioning any of `files`, in report order.
std::vector<std::string> error_lines_for(const std::string& output,
                                         const std::vector<std::string>& files) {
    std::vector<std::string> out;
    std::istringstream in(output);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find(": error: ") == std::string::npos) continue;
        for (const std::string& f : files)
            if (line.compare(0, f.size(), f) == 0) {
                out.push_back(line);
                break;
            }
    }
    return out;
}

}  // namespace

TEST(Platoonlint, FileListModeMatchesWholeTreeOnSameFiles) {
    // The contract behind --diff-base: linting a subset of files reports
    // exactly the findings the whole-tree run attributes to those files,
    // cross-TU rules included.
    const std::vector<std::string> files = {
        "src/net/colliding_stream.cpp", "src/net/undeclared_stream.cpp"};
    const RunResult whole =
        run_lint("--root " + std::string(LINT_FIXTURE_DIR) + " " +
                 std::string(LINT_FIXTURE_DIR));
    const RunResult subset =
        run_lint("--root " + std::string(LINT_FIXTURE_DIR) + " " +
                 fixture(files[0]) + " " + fixture(files[1]));
    EXPECT_EQ(whole.exit_code, 1) << whole.output;
    EXPECT_EQ(subset.exit_code, 1) << subset.output;
    const std::vector<std::string> expect =
        error_lines_for(whole.output, files);
    const std::vector<std::string> got =
        error_lines_for(subset.output, files);
    EXPECT_EQ(expect, got) << subset.output;
    EXPECT_FALSE(got.empty());
}

TEST(Platoonlint, DiffBaseUnknownRefExitsTwo) {
    const RunResult r =
        run_lint("--root " + std::string(REPO_SOURCE_DIR) +
                 " --diff-base definitely-not-a-git-ref");
    EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(Platoonlint, DiffBaseHeadRunsTheDiffMachinery) {
    // A throwaway repository, so the test does not depend on how the source
    // tree was checked out: two clean committed files, then an uncommitted
    // edit that seeds a finding in one. The diff against HEAD must scope
    // the run to the edited file and report its finding.
    const fs::path repo = fs::temp_directory_path() /
                          ("platoonlint-diff-" + std::to_string(::getpid()));
    fs::remove_all(repo);
    fs::create_directories(repo / "src" / "sim");
    const auto write = [&](const std::string& rel, const std::string& text) {
        std::ofstream(repo / rel) << text;
    };
    write("src/sim/kept.cpp", "int kept() { return 1; }\n");
    write("src/sim/edited.cpp", "int edited() { return 2; }\n");
    const std::string git = "git -C '" + repo.string() + "' ";
    const std::string init =
        git + "init -q && " + git + "add -A && " + git +
        "-c user.name=lint -c user.email=lint@example.invalid "
        "-c commit.gpgsign=false commit -q -m base >/dev/null 2>&1";
    ASSERT_EQ(std::system(init.c_str()), 0) << init;
    write("src/sim/edited.cpp",
          "#include <cstdlib>\nint edited() { return rand(); }\n");

    const RunResult r =
        run_lint("--root " + repo.string() + " --diff-base HEAD");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("src/sim/edited.cpp:2: error: "
                            "[no-unseeded-random]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("1 finding(s) in 1 files"), std::string::npos)
        << r.output;
    fs::remove_all(repo);
}

TEST(Platoonlint, RealTreeIsClean) {
    const RunResult r =
        run_lint("--root " + std::string(REPO_SOURCE_DIR) + " ");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("files clean"), std::string::npos) << r.output;
}

TEST(Platoonlint, BadPathExitsTwo) {
    const RunResult r = run_lint("/nonexistent/definitely_missing.cpp");
    EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(Platoonlint, ListRulesDocumentsAllTen) {
    const RunResult r = run_lint("--list-rules");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    for (const char* rule :
         {"no-unseeded-random", "no-wallclock", "no-steady-clock",
          "no-unordered-iteration", "oracle-isolation", "layering",
          "counter-contract", "stream-registry", "scenario-names",
          "stale-suppression"}) {
        EXPECT_NE(r.output.find(rule), std::string::npos) << rule;
    }
}
