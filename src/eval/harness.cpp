#include "eval/harness.hpp"

#include <cmath>
#include <functional>
#include <utility>

#include "obs/counters.hpp"
#include "obs/timer.hpp"
#include "scen/registry.hpp"
#include "security/attacks/dos.hpp"
#include "security/attacks/eavesdrop.hpp"
#include "security/attacks/fake_maneuver.hpp"
#include "security/attacks/gps_spoof.hpp"
#include "security/attacks/impersonation.hpp"
#include "security/attacks/jamming.hpp"
#include "security/attacks/malware.hpp"
#include "security/attacks/replay.hpp"
#include "security/attacks/sensor_spoof.hpp"
#include "security/attacks/sybil.hpp"

namespace platoon::eval {

namespace {

obs::Counter g_eval_scenarios{"eval.scenarios"};

core::PlatoonVehicle& add_legit_joiner(core::Scenario& scenario) {
    core::VehicleConfig joiner;
    joiner.id = sim::NodeId{300};
    joiner.role = control::Role::kFree;
    joiner.platoon_id = 0;
    joiner.security = scenario.config().security;
    joiner.initial_state.position_m =
        scenario.tail().dynamics().position() - 80.0;
    joiner.initial_state.speed_mps = 25.0;
    joiner.desired_speed_mps = 28.0;
    auto& vehicle = scenario.add_vehicle(joiner);
    scenario.scheduler().schedule_at(25.0, [&scenario, &vehicle] {
        vehicle.request_join(scenario.platoon_id(), scenario.leader().id());
    });
    return vehicle;
}

}  // namespace

core::ScenarioConfig eval_config(std::uint64_t seed) {
    // The canonical profile lives in the scen registry so the scenario
    // compiler and this harness can never drift apart.
    return *scen::base_profile("eval", seed);
}

std::unique_ptr<security::Attack> make_attack(AttackKind kind) {
    using namespace security;
    switch (kind) {
        case AttackKind::kReplay: return std::make_unique<ReplayAttack>();
        case AttackKind::kSybil: return std::make_unique<SybilAttack>();
        case AttackKind::kFakeManeuver:
            return std::make_unique<FakeManeuverAttack>();
        case AttackKind::kJamming: return std::make_unique<JammingAttack>();
        case AttackKind::kEavesdropping:
            return std::make_unique<EavesdropAttack>();
        case AttackKind::kDenialOfService: return std::make_unique<DosAttack>();
        case AttackKind::kImpersonation:
            return std::make_unique<ImpersonationAttack>();
        case AttackKind::kSensorSpoofing:
            return std::make_unique<SensorSpoofAttack>();
        case AttackKind::kMalware: return std::make_unique<MalwareAttack>();
        default: break;
    }
    return nullptr;
}

Headline headline_for(AttackKind kind) {
    switch (kind) {
        case AttackKind::kReplay:
            return {"spacing_rms_m", true, "m"};
        case AttackKind::kSybil:
            return {"spacing_rms_m", true, "m"};
        case AttackKind::kFakeManeuver:
            return {"spacing_rms_m", true, "m"};
        case AttackKind::kJamming:
            return {"cacc_availability", false, "frac"};
        case AttackKind::kEavesdropping:
            return {"attack.decode_ratio", true, "frac"};
        case AttackKind::kDenialOfService:
            return {"join_success", false, "0/1"};
        case AttackKind::kImpersonation:
            return {"spacing_rms_m", true, "m"};
        case AttackKind::kSensorSpoofing:
            return {"spacing_max_abs_m", true, "m"};
        case AttackKind::kMalware:
            // Malware's Table II harm is "preventing users from being able
            // to platoon" + enabling insider attacks: score the time the
            // victim stays compromised (what firewall/antivirus bound).
            return {"attack.infected_time_s", true, "s"};
        default:
            return {"spacing_rms_m", true, "m"};
    }
}

void apply_defense(core::ScenarioConfig& config, DefenseKind defense) {
    // Delegates to the shared registry (scen/registry.*): the scenario
    // compiler and the benches apply the exact same mechanism switches.
    scen::apply_defense(config, defense);
}

MetricMap run_eval_once(core::ScenarioConfig config, AttackKind kind,
                        bool with_attack) {
    const obs::ScopedTimer timer("eval.run_once");
    g_eval_scenarios.inc();
    core::Scenario scenario(config);
    std::unique_ptr<security::Attack> attack;
    if (with_attack) {
        attack = make_attack(kind);
        attack->attach(scenario);
    }
    core::PlatoonVehicle* joiner = nullptr;
    if (kind == AttackKind::kDenialOfService) {
        joiner = &add_legit_joiner(scenario);
    }
    scenario.run_until(kEvalDuration);

    MetricMap m = scenario.summarize().as_map();
    if (attack) attack->collect(m);
    std::size_t detached = 0;
    for (std::size_t i = 1; i < scenario.config().platoon_size; ++i)
        detached += scenario.vehicle(i).detached() ? 1 : 0;
    m["detached_members"] = static_cast<double>(detached);
    m["join_success"] =
        joiner == nullptr
            ? 1.0
            : (joiner->role() == control::Role::kMember ? 1.0 : 0.0);
    m["revoked_subjects"] =
        static_cast<double>(scenario.authority().revoked_subjects());
    m["revoked_credentials"] =
        static_cast<double>(scenario.authority().revoked_credentials());
    return m;
}

namespace {

// Impersonation presumes stolen credentials: without a PKI in place it
// degenerates into the fake-maneuver attack, so its rows always run on a
// signed baseline.
void normalize_config(core::ScenarioConfig& config, AttackKind kind) {
    if (kind == AttackKind::kImpersonation &&
        config.security.auth_mode == crypto::AuthMode::kNone) {
        config.security.auth_mode = crypto::AuthMode::kSignature;
    }
}

}  // namespace

MetricMap run_eval(core::ScenarioConfig config, AttackKind kind,
                   bool with_attack, std::size_t seeds, unsigned jobs) {
    const std::vector<EvalCell> cell{{config, kind, with_attack, seeds}};
    return run_eval_grid(cell, jobs == 0 ? 1 : jobs).front();
}

std::vector<MetricMap> run_eval_grid(const std::vector<EvalCell>& cells,
                                     unsigned jobs) {
    // Flatten to (cell, seed) tasks for maximum load balancing: a slow cell
    // (e.g. a signed baseline) spreads its seeds across workers instead of
    // serializing them behind one.
    std::vector<std::function<MetricMap()>> tasks;
    std::vector<std::size_t> seeds_per_cell;
    seeds_per_cell.reserve(cells.size());
    for (const EvalCell& cell : cells) {
        core::ScenarioConfig config = cell.config;
        normalize_config(config, cell.kind);
        const std::uint64_t base_seed = config.seed;
        seeds_per_cell.push_back(cell.seeds);
        for (std::size_t k = 0; k < cell.seeds; ++k) {
            config.seed = base_seed + k;
            tasks.emplace_back([config, kind = cell.kind,
                                with_attack = cell.with_attack] {
                return run_eval_once(config, kind, with_attack);
            });
        }
    }
    const std::vector<MetricMap> per_seed =
        core::run_grid(std::move(tasks), jobs);

    const obs::ScopedTimer timer("eval.score");
    std::vector<MetricMap> out;
    out.reserve(cells.size());
    std::size_t offset = 0;
    for (const std::size_t seeds : seeds_per_cell) {
        const std::vector<MetricMap> slice(
            per_seed.begin() + static_cast<std::ptrdiff_t>(offset),
            per_seed.begin() + static_cast<std::ptrdiff_t>(offset + seeds));
        out.push_back(core::aggregate_runs(slice).mean);
        offset += seeds;
    }
    return out;
}

std::string verdict(const Headline& headline, double clean, double attacked,
                    double defended) {
    const double sign = headline.higher_is_worse ? 1.0 : -1.0;
    const double damage_attacked = sign * (attacked - clean);
    const double damage_defended = sign * (defended - clean);
    // Scale-free floor: the attack must have done something to grade.
    const double floor = std::max(0.05 * std::abs(clean), 1e-3);
    if (damage_attacked < floor) return "-";
    const double restored = 1.0 - damage_defended / damage_attacked;
    if (restored >= 0.8) return "MITIGATED";
    if (restored >= 0.35) return "partial";
    return "no-effect";
}

}  // namespace platoon::eval
