// Property-style robustness sweeps over the scenario space: every platoon
// size and every authentication mode must produce a stable, collision-free,
// fuel-saving platoon in the clean case.
#include <gtest/gtest.h>

#include <ostream>

#include "core/scenario.hpp"

namespace pc = platoon::core;
using platoon::crypto::AuthMode;

namespace {

class PlatoonSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlatoonSizeSweep, StableThroughBrakingWave) {
    pc::ScenarioConfig config;
    config.seed = 51;
    config.platoon_size = GetParam();
    pc::Scenario scenario(config);
    scenario.run_until(80.0);
    const auto s = scenario.summarize();
    EXPECT_EQ(s.collisions, 0) << "size " << GetParam();
    EXPECT_LT(s.spacing_rms_m, 1.0) << "size " << GetParam();
    EXPECT_GT(s.min_gap_m, 2.0) << "size " << GetParam();
    EXPECT_GT(s.cacc_availability, 0.98) << "size " << GetParam();
    // String stability: the braking wave must not amplify -- the tail's
    // worst excursion stays bounded by the first follower's.
    const auto* first = scenario.metrics().traces().find(
        "speed." + std::to_string(pc::Scenario::platoon_node(1).value));
    const auto* last = scenario.metrics().traces().find(
        "speed." +
        std::to_string(pc::Scenario::platoon_node(GetParam() - 1).value));
    ASSERT_NE(first, nullptr);
    ASSERT_NE(last, nullptr);
    const double first_swing =
        first->max() - first->min();
    const double last_swing = last->max() - last->min();
    EXPECT_LE(last_swing, first_swing * 1.15) << "size " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlatoonSizeSweep,
                         ::testing::Values(2u, 3u, 5u, 8u, 12u));

struct AuthCase {
    AuthMode mode;
    bool encrypt;
    const char* name;
};

// Names each case after its mode. gtest's default would dump the raw bytes,
// which hold padding and a pointer and so change from run to run.
void PrintTo(const AuthCase& c, std::ostream* os) { *os << c.name; }

class AuthModeSweep : public ::testing::TestWithParam<AuthCase> {};

TEST_P(AuthModeSweep, CleanPlatoonUnaffectedByProtection) {
    const auto& param = GetParam();
    pc::ScenarioConfig config;
    config.seed = 52;
    config.platoon_size = 4;
    config.security.auth_mode = param.mode;
    config.security.encrypt_payloads = param.encrypt;
    pc::Scenario scenario(config);
    scenario.run_until(50.0);
    const auto s = scenario.summarize();
    EXPECT_EQ(s.collisions, 0) << param.name;
    EXPECT_LT(s.spacing_rms_m, 1.0) << param.name;
    EXPECT_GT(s.cacc_availability, 0.97) << param.name;
    // No spurious rejections among honest peers.
    EXPECT_EQ(s.rejected_auth, 0u) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AuthModeSweep,
    ::testing::Values(AuthCase{AuthMode::kNone, false, "open"},
                      AuthCase{AuthMode::kGroupMac, false, "group-mac"},
                      AuthCase{AuthMode::kGroupMac, true, "group-mac+enc"},
                      AuthCase{AuthMode::kSignature, false, "signature"},
                      AuthCase{AuthMode::kSignature, true, "signature+enc"}));

class ControllerSweepFull
    : public ::testing::TestWithParam<platoon::control::ControllerType> {};

TEST_P(ControllerSweepFull, FullStackScenarioIsSafe) {
    pc::ScenarioConfig config;
    config.seed = 53;
    config.platoon_size = 5;
    config.controller = GetParam();
    // Natural spacing per controller family for fair metrics.
    if (GetParam() == platoon::control::ControllerType::kCaccPath) {
        config.initial_gap_m = 5.0;
        config.metrics.desired_gap_m = 5.0;
    } else if (GetParam() == platoon::control::ControllerType::kCaccPloeg) {
        config.initial_gap_m = 29.5;
        config.metrics.desired_gap_m = 29.5;
    } else {
        config.initial_gap_m = 32.0;
        config.metrics.desired_gap_m = 32.0;
    }
    pc::Scenario scenario(config);
    scenario.run_until(80.0);
    const auto s = scenario.summarize();
    EXPECT_EQ(s.collisions, 0);
    EXPECT_GT(s.min_gap_m, 1.5);
    EXPECT_LT(s.spacing_rms_m, 4.0);
}

INSTANTIATE_TEST_SUITE_P(
    Controllers, ControllerSweepFull,
    ::testing::Values(platoon::control::ControllerType::kCaccPath,
                      platoon::control::ControllerType::kCaccPloeg,
                      platoon::control::ControllerType::kAcc));

}  // namespace
