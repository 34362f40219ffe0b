// Tests for tools/scenfuzz's command line: the built binary runs end to
// end, and a malformed --budget or --seed is a usage error (exit 2) instead
// of a silently different run ("abc" read as 0, "-1" wrapped to 2^64 - 1).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include <sys/wait.h>

namespace {

/// Runs scenfuzz with `args` (shell-quoted by the caller) and returns its
/// exit code.
int run_scenfuzz(const std::string& args) {
    const std::string cmd =
        std::string(SCENFUZZ_BIN) + " " + args + " > /dev/null 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    if (pipe == nullptr) return -1;
    std::array<char, 256> buf{};
    while (fread(buf.data(), 1, buf.size(), pipe) > 0) {
    }
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

TEST(Scenfuzz, ZeroBudgetRunsNothingAndSucceeds) {
    EXPECT_EQ(run_scenfuzz("--budget 0"), 0);
}

TEST(Scenfuzz, MalformedBudgetIsAUsageError) {
    for (const char* value : {"abc", "-1", "3x", "", "+2", " 2",
                              "18446744073709551616"})
        EXPECT_EQ(run_scenfuzz(std::string("--budget '") + value + "'"), 2)
            << "--budget '" << value << "'";
}

TEST(Scenfuzz, MalformedSeedIsAUsageError) {
    for (const char* value : {"abc", "-1", "7x", ""})
        EXPECT_EQ(run_scenfuzz(std::string("--budget 0 --seed '") + value +
                               "'"),
                  2)
            << "--seed '" << value << "'";
}

TEST(Scenfuzz, MissingValueIsAUsageError) {
    EXPECT_EQ(run_scenfuzz("--budget"), 2);
}
