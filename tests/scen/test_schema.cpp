// Scenario-compiler schema tests: the committed descriptions compile to
// exactly the grids the table benches pin, composition follows the
// documented order, and every validator produces one actionable diagnostic
// with a JSON path (the DSL's error surface is part of its interface).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "eval/harness.hpp"
#include "obs/json.hpp"
#include "scen/schema.hpp"
#include "security/stealth/profile.hpp"

namespace pc = platoon::core;
namespace ps = platoon::scen;
using platoon::obs::Json;

namespace {

std::optional<ps::Compiled> compile_text(const std::string& text,
                                         std::string* error) {
    const std::optional<Json> doc = Json::parse(text);
    EXPECT_TRUE(doc.has_value()) << text;
    if (!doc) return std::nullopt;
    return ps::compile(*doc, error);
}

/// Compiles a description expected to fail; returns the diagnostic.
std::string compile_error(const std::string& text) {
    std::string error;
    const auto compiled = compile_text(text, &error);
    EXPECT_FALSE(compiled.has_value()) << text;
    return error;
}

const char* kMinimal = R"({
  "name": "t",
  "grids": [{"axes": {"attacks": ["replay"]}}]
})";

}  // namespace

TEST(ScenSchema, MinimalDescriptionCompilesToOneAttackedReplayCell) {
    std::string error;
    const auto compiled = compile_text(kMinimal, &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    ASSERT_EQ(compiled->cells.size(), 1u);
    const ps::CompiledCell& cell = compiled->cells[0];
    EXPECT_EQ(cell.attack, pc::AttackKind::kReplay);
    EXPECT_TRUE(cell.with_attack);  // attacked defaults to [true]
    EXPECT_EQ(cell.defense, ps::kNoDefense);
    EXPECT_EQ(cell.fault, "none");
    EXPECT_EQ(cell.seeds, 1u);  // seeds default to 1
    EXPECT_EQ(compiled->description.seed, 42u);  // seed defaults to 42
}

TEST(ScenSchema, CommittedTable2DescriptionMatchesHandBuiltGrid) {
    // The exact grid bench_table2_threats used to hand-build: per attack in
    // catalogue order a clean cell then an attacked cell, 3 seeds each.
    std::string error;
    const auto compiled = ps::compile_file(
        std::string(PLATOON_SCENARIO_DIR) + "/table2_threats.json", &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    const auto n_attacks = static_cast<std::size_t>(pc::AttackKind::kCount_);
    ASSERT_EQ(compiled->cells.size(), 2 * n_attacks);
    for (std::size_t k = 0; k < n_attacks; ++k) {
        const ps::CompiledCell& clean = compiled->cells[2 * k];
        const ps::CompiledCell& attacked = compiled->cells[2 * k + 1];
        EXPECT_EQ(clean.attack, static_cast<pc::AttackKind>(k));
        EXPECT_FALSE(clean.with_attack);
        EXPECT_EQ(attacked.attack, static_cast<pc::AttackKind>(k));
        EXPECT_TRUE(attacked.with_attack);
        EXPECT_EQ(clean.seeds, 3u);
        // Identical composition to the eval harness's base profile.
        EXPECT_EQ(clean.config.seed, platoon::eval::eval_config().seed);
        EXPECT_EQ(clean.config.platoon_size,
                  platoon::eval::eval_config().platoon_size);
    }
}

TEST(ScenSchema, CommittedTable3DescriptionMatchesHandBuiltGrid) {
    // Baseline pairs first, then the defense x attack block in enum order
    // at index 2*n_attacks + d*n_attacks + a -- the indices the printed
    // matrix reads.
    std::string error;
    const auto compiled = ps::compile_file(
        std::string(PLATOON_SCENARIO_DIR) + "/table3_mitigations.json",
        &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    const auto n_attacks = static_cast<std::size_t>(pc::AttackKind::kCount_);
    const auto n_defenses =
        static_cast<std::size_t>(pc::DefenseKind::kCount_);
    ASSERT_EQ(compiled->cells.size(),
              2 * n_attacks + n_defenses * n_attacks);
    for (std::size_t d = 0; d < n_defenses; ++d) {
        for (std::size_t a = 0; a < n_attacks; ++a) {
            const ps::CompiledCell& cell =
                compiled->cells[2 * n_attacks + d * n_attacks + a];
            EXPECT_EQ(cell.defense, static_cast<pc::DefenseKind>(d));
            EXPECT_EQ(cell.attack, static_cast<pc::AttackKind>(a));
            EXPECT_TRUE(cell.with_attack);
            // The defense axis actually changed the config the same way
            // eval::apply_defense does.
            pc::ScenarioConfig expected = platoon::eval::eval_config();
            platoon::eval::apply_defense(expected,
                                         static_cast<pc::DefenseKind>(d));
            EXPECT_EQ(cell.config.security.auth_mode,
                      expected.security.auth_mode);
            EXPECT_EQ(cell.config.rsu_count, expected.rsu_count);
            EXPECT_EQ(cell.config.security.hybrid_comms,
                      expected.security.hybrid_comms);
        }
    }
}

TEST(ScenSchema, CommittedTableFaultsDescriptionCarriesFaultPlans) {
    std::string error;
    const auto compiled = ps::compile_file(
        std::string(PLATOON_SCENARIO_DIR) + "/table_faults.json", &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    ASSERT_EQ(compiled->cells.size(), 9u);
    // cells[1] is the burst-loss fault cell beside the jamming attack.
    const ps::CompiledCell& burst = compiled->cells[1];
    EXPECT_EQ(burst.fault, "burst-loss");
    EXPECT_FALSE(burst.with_attack);
    ASSERT_EQ(burst.config.faults.burst_loss.size(), 1u);
    EXPECT_DOUBLE_EQ(burst.config.faults.burst_loss[0].loss_bad, 0.95);
    // The clock-drift cell is normalized to a signed deployment via its
    // grid override (composition order: overrides before fault preset).
    const ps::CompiledCell& drift = compiled->cells[7];
    EXPECT_EQ(drift.fault, "clock-drift");
    EXPECT_EQ(drift.config.security.auth_mode,
              platoon::crypto::AuthMode::kSignature);
    ASSERT_EQ(drift.config.faults.clock_drifts.size(), 1u);
}

TEST(ScenSchema, EnumerationOrderIsDefensesFaultsAttacksAttacked) {
    std::string error;
    const auto compiled = compile_text(R"({
      "name": "order",
      "fault_presets": {
        "crash": {"crashes": [{"vehicle_index": 1, "at_s": 25.0}]}
      },
      "grids": [{
        "axes": {
          "attacks": ["replay", "jamming"],
          "attacked": [false, true],
          "defenses": ["none", "roadside-units"],
          "faults": ["none", "crash"]
        }
      }]
    })",
                                       &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    ASSERT_EQ(compiled->cells.size(), 16u);  // 2 * 2 * 2 * 2
    // Innermost axis: attacked flips fastest.
    EXPECT_FALSE(compiled->cells[0].with_attack);
    EXPECT_TRUE(compiled->cells[1].with_attack);
    // Then attacks.
    EXPECT_EQ(compiled->cells[0].attack, pc::AttackKind::kReplay);
    EXPECT_EQ(compiled->cells[2].attack, pc::AttackKind::kJamming);
    // Then faults.
    EXPECT_EQ(compiled->cells[0].fault, "none");
    EXPECT_EQ(compiled->cells[4].fault, "crash");
    // Outermost: defenses.
    EXPECT_EQ(compiled->cells[0].defense, ps::kNoDefense);
    EXPECT_EQ(compiled->cells[8].defense,
              pc::DefenseKind::kRoadsideUnits);
}

TEST(ScenSchema, FindCellAddressesByMeaning) {
    std::string error;
    const auto compiled = ps::compile_file(
        std::string(PLATOON_SCENARIO_DIR) + "/table_faults.json", &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    const ps::CompiledCell* cell =
        ps::find_cell(compiled->cells, pc::AttackKind::kJamming,
                      /*with_attack=*/false, ps::kNoDefense, "burst-loss");
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->coverage_key(), "jamming|none|burst-loss");
    EXPECT_EQ(ps::find_cell(compiled->cells, pc::AttackKind::kMalware,
                            /*with_attack=*/true),
              nullptr);
}

TEST(ScenSchema, UnknownTopLevelKeyIsRejectedWithSuggestion) {
    const std::string error = compile_error(R"({
      "name": "t",
      "grid": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("unknown key 'grid'"), std::string::npos) << error;
    EXPECT_NE(error.find("did you mean 'grids'?"), std::string::npos)
        << error;
}

TEST(ScenSchema, UnknownAttackNameSuggestsNearMiss) {
    const std::string error = compile_error(R"({
      "name": "t",
      "grids": [{"axes": {"attacks": ["replai"]}}]
    })");
    EXPECT_NE(error.find("grids[0].axes.attacks[0]"), std::string::npos)
        << error;
    EXPECT_NE(error.find("did you mean 'replay'?"), std::string::npos)
        << error;
}

TEST(ScenSchema, OutOfRangePlatoonSizeNamesPathAndBounds) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"platoon_size": 1},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("overrides.platoon_size"), std::string::npos)
        << error;
    EXPECT_NE(error.find("out of range [2, 64]"), std::string::npos)
        << error;
}

TEST(ScenSchema, EncryptWithoutAuthenticationIsIncompatible) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"security": {"encrypt_payloads": true}},
      "grids": [{"axes": {"attacks": ["eavesdropping"]}}]
    })");
    EXPECT_NE(error.find("incompatible combination"), std::string::npos)
        << error;
    EXPECT_NE(error.find("encrypt_payloads"), std::string::npos) << error;
}

TEST(ScenSchema, ClockDriftWithoutTimestampChecksIsIncompatible) {
    const std::string error = compile_error(R"({
      "name": "t",
      "fault_presets": {
        "drift": {"clock_drifts": [{"vehicle_index": 2, "offset_s": 0.3}]}
      },
      "grids": [{"axes": {"attacks": ["replay"], "faults": ["drift"]}}]
    })");
    EXPECT_NE(error.find("clock drift"), std::string::npos) << error;
    EXPECT_NE(error.find("auth_mode"), std::string::npos) << error;
}

TEST(ScenSchema, FaultVehicleIndexOutsidePlatoonIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"platoon_size": 4},
      "fault_presets": {
        "crash": {"crashes": [{"vehicle_index": 9, "at_s": 25.0}]}
      },
      "grids": [{"axes": {"attacks": ["replay"], "faults": ["crash"]}}]
    })");
    EXPECT_NE(error.find("vehicle_index 9"), std::string::npos) << error;
    EXPECT_NE(error.find("platoon_size 4"), std::string::npos) << error;
}

TEST(ScenSchema, DuplicateAxisEntryIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "grids": [{"axes": {"attacks": ["replay", "replay"]}}]
    })");
    EXPECT_NE(error.find("duplicate axis entry"), std::string::npos)
        << error;
}

TEST(ScenSchema, AllExpandsToFullCatalogueAndDuplicatesWithAllAreCaught) {
    std::string error;
    const auto compiled = compile_text(R"({
      "name": "t",
      "grids": [{"axes": {"attacks": ["all"]}}]
    })",
                                       &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    EXPECT_EQ(compiled->cells.size(),
              static_cast<std::size_t>(pc::AttackKind::kCount_));
    const std::string dup = compile_error(R"({
      "name": "t",
      "grids": [{"axes": {"attacks": ["all", "replay"]}}]
    })");
    EXPECT_NE(dup.find("duplicate axis entry"), std::string::npos) << dup;
}

TEST(ScenSchema, ReservedFaultPresetNameNoneIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "fault_presets": {"none": {"crashes": [{"vehicle_index": 1}]}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("'none' is reserved"), std::string::npos) << error;
}

TEST(ScenSchema, ReservedFaultPresetNameAllIsRejected) {
    // A faults axis expands "all" to every preset before it looks a name
    // up, so a preset called "all" could never be picked on its own.
    const std::string error = compile_error(R"({
      "name": "t",
      "fault_presets": {
        "all": {"crashes": [{"vehicle_index": 1}]},
        "drop": {"crashes": [{"vehicle_index": 2}]}
      },
      "grids": [{"axes": {"attacks": ["replay"], "faults": ["all"]}}]
    })");
    EXPECT_EQ(error, "fault_presets: 'all' is reserved for the every-preset "
                     "slot");
}

TEST(ScenSchema, ExplicitNullIsAWrongTypeNotAnAbsentKey) {
    // An absent size takes the default; an explicit null is a value of the
    // wrong type, like any other.
    std::string error;
    ASSERT_TRUE(compile_text(R"({
      "name": "t",
      "overrides": {"platoons": [{"lane": 1}]},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })",
                             &error))
        << error;
    EXPECT_EQ(compile_error(R"({
      "name": "t",
      "overrides": {"platoons": [{"size": null}]},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })"),
              "overrides.platoons[0].size: expected an integer");
    EXPECT_EQ(compile_error(R"({
      "name": "t",
      "title": null,
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })"),
              "title: expected a string");
}

TEST(ScenSchema, SeveralFaultsReportTheFirstInStructureOrder) {
    // The top-level overrides bind before any grid, so their fault wins
    // over one in grid 0's axes.
    EXPECT_EQ(compile_error(R"({
      "name": "t",
      "overrides": {"platoon_size": 1},
      "grids": [{"axes": {"attacks": ["replai"]}}]
    })"),
              "overrides.platoon_size: value 1 out of range [2, 64]");
    // Within a block, fields come before its cross-field check: the
    // amplitude axis is a field of stealth, the horizon check is stealth's.
    EXPECT_EQ(compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps-spoof"],
        "start_s": 50.0, "horizon_s": 40.0,
        "amplitude": {"min": 3.0, "max": 1.0}}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })"),
              "overrides.stealth.amplitude: max must be >= min");
}

TEST(ScenSchema, UnknownProfileListsKnownOnes) {
    const std::string error = compile_error(R"({
      "name": "t",
      "profile": "detektion",
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("unknown profile 'detektion'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("did you mean 'detection'?"), std::string::npos)
        << error;
}

TEST(ScenSchema, MissingGridsIsRequired) {
    const std::string error = compile_error(R"({"name": "t"})");
    EXPECT_NE(error.find("grids"), std::string::npos) << error;
    EXPECT_NE(error.find("required"), std::string::npos) << error;
}

TEST(ScenSchema, UnreadableFilePrefixesPathInError) {
    std::string error;
    const auto compiled =
        ps::compile_file("/nonexistent/missing.json", &error);
    EXPECT_FALSE(compiled.has_value());
    EXPECT_NE(error.find("/nonexistent/missing.json"), std::string::npos)
        << error;
}

// --- overrides.stealth (the Table VI stealth-frontier block) ---------------

TEST(ScenSchema, CommittedStealthFrontierDescriptionCarriesTheSearchBox) {
    std::string error;
    const auto compiled = ps::compile_file(
        std::string(PLATOON_SCENARIO_DIR) + "/stealth_frontier.json", &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    ASSERT_TRUE(compiled->stealth.has_value());
    const ps::StealthOverrides& s = *compiled->stealth;
    ASSERT_EQ(s.injections.size(), 3u);
    EXPECT_EQ(s.injections[0], "sensor-spoof");
    EXPECT_EQ(s.injections[1], "gps-spoof");
    EXPECT_EQ(s.injections[2], "fake-maneuver");
    EXPECT_EQ(s.victim_index, 3u);
    EXPECT_DOUBLE_EQ(s.start_s, 20.0);
    EXPECT_DOUBLE_EQ(s.horizon_s, 70.0);
    EXPECT_DOUBLE_EQ(s.amplitude_min, 0.5);
    EXPECT_DOUBLE_EQ(s.amplitude_max, 5.0);
    EXPECT_EQ(s.amplitude_steps, 4u);
    EXPECT_EQ(s.ramp_steps, 2u);
    EXPECT_EQ(s.duty_steps, 3u);
    EXPECT_DOUBLE_EQ(s.duty_period_s, 8.0);
    EXPECT_DOUBLE_EQ(s.onset_max_s, 2.0);
    EXPECT_EQ(s.cem_iterations, 2u);
    EXPECT_EQ(s.cem_population, 12u);
    EXPECT_EQ(s.cem_elites, 4u);
    EXPECT_EQ(s.seeds, 1u);
    // The bench uses the description's single compiled cell as its base
    // config; the victim index must address a real platoon member there.
    ASSERT_EQ(compiled->cells.size(), 1u);
    EXPECT_LT(s.victim_index, compiled->cells[0].config.platoon_size);
}

TEST(ScenSchema, StealthVocabularyMatchesTheSecurityLayer) {
    // scen cannot include security (layering), so it hardcodes a mirror of
    // the injection vocabulary; this cross-check pins the two lists equal
    // so adding an InjectionKind without teaching the schema fails loudly.
    EXPECT_EQ(ps::stealth_injection_names(),
              platoon::security::stealth::injection_names());
}

TEST(ScenSchema, StealthWithoutInjectionsIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"victim_index": 3}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("overrides.stealth"), std::string::npos) << error;
    EXPECT_NE(error.find("injections"), std::string::npos) << error;
}

TEST(ScenSchema, UnknownStealthKeyIsRejectedWithPath) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps-spoof"], "ampltude":
        {"min": 1.0}}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("overrides.stealth"), std::string::npos) << error;
    EXPECT_NE(error.find("ampltude"), std::string::npos) << error;
}

TEST(ScenSchema, UnknownInjectionNameSuggestsNearMiss) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps_spoof"]}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("gps_spoof"), std::string::npos) << error;
    EXPECT_NE(error.find("gps-spoof"), std::string::npos) << error;
}

TEST(ScenSchema, StealthInsideGridOverridesIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "grids": [{
        "axes": {"attacks": ["replay"]},
        "overrides": {"stealth": {"injections": ["gps-spoof"]}}
      }]
    })");
    EXPECT_NE(error.find("top-level"), std::string::npos) << error;
}

TEST(ScenSchema, StealthAxisMaxBelowMinIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps-spoof"],
        "amplitude": {"min": 3.0, "max": 1.0}}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("overrides.stealth.amplitude"), std::string::npos)
        << error;
    EXPECT_NE(error.find("max must be >= min"), std::string::npos) << error;
}

TEST(ScenSchema, StealthHorizonMustExceedStart) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps-spoof"],
        "start_s": 50.0, "horizon_s": 40.0}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("horizon_s"), std::string::npos) << error;
}

TEST(ScenSchema, StealthVictimOutsidePlatoonIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps-spoof"],
        "victim_index": 60}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("overrides.stealth.victim_index"), std::string::npos)
        << error;
}

TEST(ScenSchema, StealthCemElitesCannotExceedPopulation) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps-spoof"],
        "cem": {"population": 4, "elites": 8}}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("elites"), std::string::npos) << error;
}
