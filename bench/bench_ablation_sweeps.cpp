// Ablation A: parameter sweeps behind the paper's Section V claims.
//
//  - Replay-rate sweep: "the attacker will make the platoon oscillate"
//    (Section V-A.1) -- how much injection bandwidth does the attacker need?
//  - Jammer-power sweep: "by flooding the communication frequencies ... the
//    platoon disbands" (Section V-B) -- where is the cliff, and how does the
//    SP-VLC hybrid change it?
//  - Sybil ghost-count sweep: marginal damage per fabricated identity.
#include <iostream>

#include "bench_common.hpp"

namespace pb = platoon::bench;
namespace pc = platoon::core;
namespace ps = platoon::security;

namespace {

// Lifetime contract: an Attack must not outlive the Scenario it attached
// to (its radio deregisters from the scenario's network on destruction), so
// the factory constructs it inside the scenario's scope.
using AttackFactory =
    std::function<std::unique_ptr<platoon::security::Attack>(pc::Scenario&)>;

pb::MetricMap run_with(const AttackFactory& make_attack, bool hybrid = false,
                       std::uint64_t seed = 42) {
    auto config = pb::eval_config(seed);
    config.security.hybrid_comms = hybrid;
    pc::Scenario scenario(config);
    std::unique_ptr<platoon::security::Attack> attack = make_attack(scenario);
    if (attack) attack->attach(scenario);
    scenario.run_until(pb::kEvalDuration);
    return scenario.summarize().as_map();
}

void replay_rate_sweep() {
    pc::print_banner(std::cout,
                     "Replay-rate sweep (open platoon): oscillation vs "
                     "injection bandwidth");
    pc::Table table({"replay rate (Hz)", "spacing RMS (m)",
                     "speed stddev (m/s)", "max |accel| (m/s^2)"});
    const std::vector<double> rates{0.0, 2.0, 5.0, 10.0, 20.0, 40.0};
    std::vector<std::function<pb::MetricMap()>> cells;
    for (const double rate : rates) {
        cells.emplace_back([rate] {
            return run_with([rate](pc::Scenario&)
                                -> std::unique_ptr<platoon::security::Attack> {
                if (rate <= 0.0) return nullptr;
                ps::ReplayAttack::Params params;
                params.replay_rate_hz = rate;
                return std::make_unique<ps::ReplayAttack>(params);
            });
        });
    }
    const auto results = pc::run_grid(std::move(cells), pb::jobs());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto& m = results[i];
        table.add_row({pc::Table::num(rates[i]),
                       pc::Table::num(pb::metric(m, "spacing_rms_m")),
                       pc::Table::num(pb::metric(m, "follower_speed_stddev")),
                       pc::Table::num(pb::metric(m, "max_abs_accel"))});
    }
    table.print(std::cout);
}

void jammer_power_sweep() {
    pc::print_banner(std::cout,
                     "Jammer-power sweep: RF-only vs SP-VLC hybrid");
    pc::Table table({"jammer power (dBm)", "PDR (rf-only)",
                     "CACC avail (rf-only)", "spacing RMS (rf-only)",
                     "CACC avail (hybrid)", "spacing RMS (hybrid)"});
    const std::vector<double> powers{-100.0, 10.0, 20.0, 25.0,
                                     30.0,   35.0, 40.0};
    std::vector<std::function<pb::MetricMap()>> cells;
    for (const double power : powers) {
        const auto factory = [power](pc::Scenario&)
            -> std::unique_ptr<platoon::security::Attack> {
            if (power < -50.0) return nullptr;  // no jammer baseline
            ps::JammingAttack::Params params;
            params.power_dbm = power;
            return std::make_unique<ps::JammingAttack>(params);
        };
        cells.emplace_back([factory] { return run_with(factory, false); });
        cells.emplace_back([factory] { return run_with(factory, true); });
    }
    const auto results = pc::run_grid(std::move(cells), pb::jobs());
    for (std::size_t i = 0; i < powers.size(); ++i) {
        const double power = powers[i];
        const auto& rf = results[2 * i];
        const auto& hy = results[2 * i + 1];
        table.add_row(
            {power < -50.0 ? "none" : pc::Table::num(power),
             pc::Table::num(pb::metric(rf, "pdr")),
             pc::Table::num(pb::metric(rf, "cacc_availability")),
             pc::Table::num(pb::metric(rf, "spacing_rms_m")),
             pc::Table::num(pb::metric(hy, "cacc_availability")),
             pc::Table::num(pb::metric(hy, "spacing_rms_m"))});
    }
    table.print(std::cout);
}

void sybil_ghost_sweep() {
    pc::print_banner(std::cout, "Sybil ghost-count sweep (open platoon)");
    pc::Table table({"ghosts", "spacing RMS (m)", "min gap (m)",
                     "admission slots held"});
    const std::vector<std::size_t> ghost_counts{0, 1, 2, 3};
    std::vector<std::function<pb::MetricMap()>> cells;
    for (const std::size_t ghosts : ghost_counts) {
        cells.emplace_back([ghosts] {
            auto config = pb::eval_config();
            pc::Scenario scenario(config);
            ps::SybilAttack::Params params;
            params.ghosts = ghosts;
            auto attack = std::make_unique<ps::SybilAttack>(params);
            if (ghosts > 0) attack->attach(scenario);
            scenario.run_until(pb::kEvalDuration);
            auto m = scenario.summarize().as_map();
            m["admission_pending"] = static_cast<double>(
                scenario.leader().admission().pending());
            return m;
        });
    }
    const auto results = pc::run_grid(std::move(cells), pb::jobs());
    for (std::size_t i = 0; i < ghost_counts.size(); ++i) {
        const auto& m = results[i];
        table.add_row(
            {pc::Table::num(static_cast<double>(ghost_counts[i])),
             pc::Table::num(pb::metric(m, "spacing_rms_m")),
             pc::Table::num(pb::metric(m, "min_gap_m")),
             pc::Table::num(pb::metric(m, "admission_pending"))});
    }
    table.print(std::cout);
}

}  // namespace

int main() {
    pb::obs_init();
    pb::print_jobs_banner("bench_ablation_sweeps");
    replay_rate_sweep();
    jammer_power_sweep();
    sybil_ghost_sweep();
    pb::write_bench_json("bench_ablation_sweeps",
                         "attack-parameter sweeps (replay/jam/sybil)", 42);
    return 0;
}
