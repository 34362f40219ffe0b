// Ablation C: controller choice and admission capacity.
//
//  - Controller family (PATH CACC / Ploeg CACC / ACC) under increasing
//    packet loss (jammer duty cycle): who needs the network, and how
//    gracefully does each degrade? (Also quantifies the fuel value of
//    tight CACC gaps -- the platooning benefit the attacks destroy.)
//  - DoS request-rate sweep vs legitimate-join success, open vs signed.
#include <iostream>

#include "bench_common.hpp"

namespace pb = platoon::bench;
namespace pc = platoon::core;
namespace ps = platoon::security;

namespace {

void controller_loss_sweep() {
    pc::print_banner(std::cout,
                     "Controller family under packet loss (jammer duty "
                     "cycle): spacing vs own set-point, fuel, safety");
    pc::Table table({"controller", "jam duty", "spacing RMS vs set-pt (m)",
                     "min gap (m)", "collisions", "fuel (L/100km)",
                     "CACC avail"});
    struct Case {
        platoon::control::ControllerType type;
        double desired_gap;
    };
    const Case cases[] = {
        {platoon::control::ControllerType::kCaccPath, 5.0},
        {platoon::control::ControllerType::kCaccPloeg, 29.5},
        {platoon::control::ControllerType::kAcc, 32.0},
    };
    const std::vector<double> duties{0.0, 0.3, 1.0};
    std::vector<std::function<pb::MetricMap()>> cells;
    for (const auto& c : cases) {
        for (const double duty : duties) {
            cells.emplace_back([c, duty] {
                auto config = pb::eval_config();
                config.controller = c.type;
                config.initial_gap_m = c.desired_gap;
                config.metrics.desired_gap_m = c.desired_gap;
                pc::Scenario scenario(config);
                std::shared_ptr<ps::JammingAttack> attack;
                if (duty > 0.0) {
                    ps::JammingAttack::Params params;
                    params.duty_cycle = duty;
                    params.power_dbm = 40.0;
                    attack = std::make_shared<ps::JammingAttack>(params);
                    attack->attach(scenario);
                }
                scenario.run_until(pb::kEvalDuration);
                return scenario.summarize().as_map();
            });
        }
    }
    const auto results = pc::run_grid(std::move(cells), pb::jobs());
    std::size_t cell = 0;
    for (const auto& c : cases) {
        for (const double duty : duties) {
            const auto& m = results[cell++];
            table.add_row({platoon::control::to_string(c.type),
                           pc::Table::num(duty),
                           pc::Table::num(pb::metric(m, "spacing_rms_m")),
                           pc::Table::num(pb::metric(m, "min_gap_m")),
                           pc::Table::num(pb::metric(m, "collisions")),
                           pc::Table::num(pb::metric(m, "fuel_l_per_100km")),
                           pc::Table::num(pb::metric(m, "cacc_availability"))});
        }
    }
    table.print(std::cout);
    std::cout << "\n(ACC never uses the network: its rows are flat across "
                 "duty cycles -- the price is ~6x wider gaps and the fuel "
                 "delta; CACC rows show the availability attack surface.)\n";
}

void dos_rate_sweep() {
    pc::print_banner(std::cout,
                     "DoS join-flood rate vs legitimate join success");
    pc::Table table({"flood rate (req/s)", "open: joined?",
                     "signed: joined?", "signed: flood rejected"});
    const std::vector<double> rates{0.0, 0.5, 2.0, 5.0, 20.0};
    std::vector<std::function<pb::MetricMap()>> cells;
    for (const double rate : rates) {
        const auto run = [rate](bool sign) {
            auto config = pb::eval_config();
            if (sign)
                config.security.auth_mode = platoon::crypto::AuthMode::kSignature;
            pc::Scenario scenario(config);
            std::shared_ptr<ps::DosAttack> attack;
            if (rate > 0.0) {
                ps::DosAttack::Params params;
                params.request_rate_hz = rate;
                attack = std::make_shared<ps::DosAttack>(params);
                attack->attach(scenario);
            }
            // Legitimate joiner.
            pc::VehicleConfig joiner;
            joiner.id = platoon::sim::NodeId{300};
            joiner.role = platoon::control::Role::kFree;
            joiner.platoon_id = 0;
            joiner.security = config.security;
            joiner.initial_state.position_m =
                scenario.tail().dynamics().position() - 80.0;
            joiner.initial_state.speed_mps = 25.0;
            joiner.desired_speed_mps = 28.0;
            auto& vehicle = scenario.add_vehicle(joiner);
            scenario.scheduler().schedule_at(25.0, [&] {
                vehicle.request_join(scenario.platoon_id(),
                                     scenario.leader().id());
            });
            scenario.run_until(90.0);
            pb::MetricMap m;
            m["joined"] =
                vehicle.role() == platoon::control::Role::kMember ? 1.0 : 0.0;
            m["rejected"] = static_cast<double>(
                scenario.leader().counters().rejected_total());
            return m;
        };
        cells.emplace_back([run] { return run(false); });
        cells.emplace_back([run] { return run(true); });
    }
    const auto results = pc::run_grid(std::move(cells), pb::jobs());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto& open = results[2 * i];
        const auto& defended = results[2 * i + 1];
        table.add_row({pc::Table::num(rates[i]),
                       pb::metric(open, "joined") > 0.5 ? "yes" : "NO",
                       pb::metric(defended, "joined") > 0.5 ? "yes" : "NO",
                       pc::Table::num(pb::metric(defended, "rejected"))});
    }
    table.print(std::cout);
}

}  // namespace

int main() {
    pb::obs_init();
    pb::print_jobs_banner("bench_ablation_control");
    controller_loss_sweep();
    dos_rate_sweep();
    pb::write_bench_json("bench_ablation_control",
                         "controller robustness sweeps", 42);
    return 0;
}
