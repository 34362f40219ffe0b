// Tests for tools/benchdiff: crafted baseline/candidate artifact pairs
// drive the built binary end-to-end. The exit-code contract is what CI
// scripts key on: 0 ok, 1 perf regression, 2 counter mismatch, 3 usage/IO.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

struct RunResult {
    int exit_code = -1;
    std::string output;
};

RunResult run_diff(const std::string& args) {
    const std::string cmd = std::string(BENCHDIFF_BIN) + " " + args + " 2>&1";
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

/// The text of a minimal schema-v1 artifact.
std::string artifact_text(long net_sent, double verify_total_ms,
                          bool extra_counter = false) {
    std::ostringstream out;
    out << "{\n"
           "  \"counters\": {\n"
           "    \"crypto.verify.ok\": 100,\n";
    if (extra_counter) out << "    \"net.dropped\": 3,\n";
    out << "    \"net.sent\": " << net_sent << "\n"
           "  },\n"
           "  \"manifest\": {\"bench\": \"t\", \"seed\": 1},\n"
           "  \"schema_version\": 1,\n"
           "  \"timings_nondeterministic\": {\n"
           "    \"note\": \"advisory\",\n"
           "    \"timers\": {\n"
           "      \"sim.run/crypto.verify\": {\"calls\": 100, \"max_ms\": 1.0,\n"
           "        \"mean_us\": 10.0, \"total_ms\": "
        << verify_total_ms
        << "}\n"
           "    }\n"
           "  }\n"
           "}\n";
    return out.str();
}

std::string write_text(const std::string& name, const std::string& text) {
    const std::string path = testing::TempDir() + "benchdiff_" + name + ".json";
    std::ofstream out(path);
    out << text;
    EXPECT_TRUE(out.good());
    return path;
}

/// Writes a minimal schema-v1 artifact and returns its path.
std::string write_artifact(const std::string& name, long net_sent,
                           double verify_total_ms,
                           bool extra_counter = false) {
    return write_text(name,
                      artifact_text(net_sent, verify_total_ms, extra_counter));
}

/// Writes a valid artifact with one substring replaced and returns its path.
std::string write_edited(const std::string& name, const std::string& from,
                         const std::string& to) {
    std::string text = artifact_text(500, 20.0);
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return write_text(name, text);
}

/// An artifact that breaks schema v1 must fail as a usage/IO error, on
/// either side, naming the file and the JSON Pointer of the bad value.
void expect_schema_rejection(const std::string& name, const std::string& from,
                             const std::string& to,
                             const std::string& pointer) {
    const std::string good = write_artifact(name + "_good", 500, 20.0);
    const std::string bad = write_edited(name + "_bad", from, to);
    for (const std::string& args : {good + " " + bad, bad + " " + good,
                                    bad + " " + good + " --counters-only"}) {
        const RunResult r = run_diff(args);
        EXPECT_EQ(r.exit_code, 3) << args << "\n" << r.output;
        EXPECT_NE(r.output.find(bad + ": " + pointer + ":"), std::string::npos)
            << r.output;
        EXPECT_EQ(r.output.find("benchdiff: OK"), std::string::npos)
            << r.output;
    }
}

TEST(Benchdiff, IdenticalArtifactsExitZero) {
    const std::string base = write_artifact("id_a", 500, 20.0);
    const std::string cand = write_artifact("id_b", 500, 20.0);
    const RunResult r = run_diff(base + " " + cand);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("benchdiff: OK"), std::string::npos) << r.output;
}

TEST(Benchdiff, CounterValueDriftExitsTwo) {
    const std::string base = write_artifact("cv_a", 500, 20.0);
    const std::string cand = write_artifact("cv_b", 501, 20.0);
    const RunResult r = run_diff(base + " " + cand);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("COUNTER MISMATCH"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("net.sent"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("mismatch"), std::string::npos) << r.output;
}

TEST(Benchdiff, NewCounterKeyExitsTwo) {
    // A new counter key is still drift: the schema is part of the contract.
    const std::string base = write_artifact("nk_a", 500, 20.0);
    const std::string cand =
        write_artifact("nk_b", 500, 20.0, /*extra_counter=*/true);
    const RunResult r = run_diff(base + " " + cand);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("new"), std::string::npos) << r.output;
}

TEST(Benchdiff, TimingRegressionExitsOne) {
    const std::string base = write_artifact("tr_a", 500, 20.0);
    const std::string cand = write_artifact("tr_b", 500, 30.0);  // +50%
    const RunResult r = run_diff(base + " " + cand + " --threshold=0.25");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("PERF REGRESSION"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("crypto.verify"), std::string::npos) << r.output;
}

TEST(Benchdiff, LooseThresholdAbsorbsSlowdown) {
    const std::string base = write_artifact("lt_a", 500, 20.0);
    const std::string cand = write_artifact("lt_b", 500, 30.0);
    const RunResult r = run_diff(base + " " + cand + " --threshold=0.6");
    EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Benchdiff, CountersOnlyIgnoresTimingRegression) {
    const std::string base = write_artifact("co_a", 500, 20.0);
    const std::string cand = write_artifact("co_b", 500, 200.0);  // 10x
    const RunResult r = run_diff(base + " " + cand + " --counters-only");
    EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Benchdiff, CounterMismatchTrumpsPerfRegression) {
    const std::string base = write_artifact("tm_a", 500, 20.0);
    const std::string cand = write_artifact("tm_b", 7, 200.0);
    const RunResult r = run_diff(base + " " + cand);
    EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(Benchdiff, MissingFileExitsThree) {
    const RunResult r = run_diff("/nonexistent/a.json /nonexistent/b.json");
    EXPECT_EQ(r.exit_code, 3) << r.output;
}

TEST(Benchdiff, MalformedJsonExitsThree) {
    const std::string good = write_artifact("mf_a", 500, 20.0);
    const std::string bad = testing::TempDir() + "benchdiff_mf_bad.json";
    std::ofstream(bad) << "{not json";
    const RunResult r = run_diff(good + " " + bad);
    EXPECT_EQ(r.exit_code, 3) << r.output;
}

TEST(Benchdiff, OtherSchemaVersionExitsThree) {
    expect_schema_rejection("sv", "\"schema_version\": 1",
                            "\"schema_version\": 7", "/schema_version");
}

TEST(Benchdiff, StringCounterExitsThree) {
    expect_schema_rejection("sc", "\"crypto.verify.ok\": 100",
                            "\"crypto.verify.ok\": \"12\"",
                            "/counters/crypto.verify.ok");
}

TEST(Benchdiff, NegativeCounterExitsThree) {
    expect_schema_rejection("nc", "\"net.sent\": 500", "\"net.sent\": -5",
                            "/counters/net.sent");
}

TEST(Benchdiff, BooleanCounterExitsThree) {
    expect_schema_rejection("bc", "\"net.sent\": 500", "\"net.sent\": true",
                            "/counters/net.sent");
}

TEST(Benchdiff, MisspelledTimersKeyExitsThree) {
    expect_schema_rejection("mt", "\"timers\"", "\"timer\"",
                            "/timings_nondeterministic/timers");
}

TEST(Benchdiff, StringTotalMsExitsThree) {
    // The timer path's "/" is escaped as "~1" in the pointer (RFC 6901).
    expect_schema_rejection(
        "st", "\"total_ms\": 20", "\"total_ms\": \"20\"",
        "/timings_nondeterministic/timers/sim.run~1crypto.verify/total_ms");
}

TEST(Benchdiff, CommittedBaselinesPassTheSchema) {
    int checked = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(PLATOON_BASELINE_DIR)) {
        if (entry.path().extension() != ".json") continue;
        const std::string path = entry.path().string();
        const RunResult r = run_diff(path + " " + path);
        EXPECT_EQ(r.exit_code, 0) << path << "\n" << r.output;
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

TEST(Benchdiff, UnknownFlagExitsThree) {
    const std::string a = write_artifact("uf_a", 500, 20.0);
    const RunResult r = run_diff(a + " " + a + " --bogus");
    EXPECT_EQ(r.exit_code, 3) << r.output;
}

TEST(Benchdiff, JsonFormatEmitsMachineReadableDelta) {
    const std::string base = write_artifact("jf_a", 500, 20.0);
    const std::string cand = write_artifact("jf_b", 501, 20.0);
    const RunResult r = run_diff(base + " " + cand + " --format=json");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("\"exit_code\": 2"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"status\": \"mismatch\""), std::string::npos)
        << r.output;
}

}  // namespace
