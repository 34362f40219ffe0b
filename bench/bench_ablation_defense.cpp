// Ablation B: defense-mechanism design choices (DESIGN.md section 5).
//
//  - Fading key agreement: key yield and eavesdropper leakage vs probe
//    noise and guard band (the cost/effectiveness question the paper's
//    open challenge raises for key distribution).
//  - VPD-ADA detector: detection latency vs false positives across the
//    gap-discrepancy threshold (an ROC-style sweep).
//  - Pseudonym rotation period vs eavesdropper linkability.
#include <iostream>

#include "bench_common.hpp"
#include "security/attacks/rogue_rsu.hpp"
#include "crypto/fading_key_agreement.hpp"
#include "defense/vpd_ada.hpp"
#include "sim/random.hpp"

namespace pb = platoon::bench;
namespace pc = platoon::core;
namespace ps = platoon::security;
namespace pcr = platoon::crypto;

namespace {

void fka_noise_sweep() {
    pc::print_banner(std::cout,
                     "Fading key agreement: yield and eavesdropper leakage "
                     "vs measurement noise (512 probes, 50 trials)");
    pc::Table table({"noise sigma (dB)", "success rate", "mean key bits",
                     "raw mismatch", "eve key matches"});
    for (const double noise : {0.1, 0.3, 0.6, 1.0, 2.0, 4.0}) {
        int successes = 0, eve_hits = 0;
        double bits = 0.0, mismatch = 0.0;
        const int trials = 50;
        for (int t = 0; t < trials; ++t) {
            platoon::sim::RandomStream chan(
                static_cast<std::uint64_t>(t) + 1, "fka.chan");
            platoon::sim::RandomStream eve_chan(
                static_cast<std::uint64_t>(t) + 1, "fka.eve");
            platoon::sim::RandomStream meas(
                static_cast<std::uint64_t>(t) + 1, "fka.noise");
            std::vector<double> alice(512), bob(512), eve(512);
            double g = 0.0, ge = 0.0;
            for (std::size_t i = 0; i < alice.size(); ++i) {
                g = 0.3 * g + chan.normal(0.0, 4.0);
                ge = 0.3 * ge + eve_chan.normal(0.0, 4.0);
                alice[i] = g + meas.normal(0.0, noise);
                bob[i] = g + meas.normal(0.0, noise);
                eve[i] = ge + meas.normal(0.0, noise);
            }
            const auto result = pcr::agree(alice, bob);
            successes += result.success;
            bits += static_cast<double>(result.harvested_bits);
            mismatch += result.raw_mismatch;
            if (result.success) {
                eve_hits +=
                    pcr::eavesdrop_key(eve, result.transcript) == result.key;
            }
        }
        table.add_row({pc::Table::num(noise),
                       pc::Table::num(successes / double(trials)),
                       pc::Table::num(bits / trials),
                       pc::Table::num(mismatch / trials),
                       pc::Table::num(static_cast<double>(eve_hits))});
    }
    table.print(std::cout);
}

void vpd_threshold_sweep() {
    pc::print_banner(std::cout,
                     "VPD-ADA threshold sweep: detection speed (Sybil run) "
                     "vs false positives (clean run)");
    pc::Table table({"gap threshold (m)", "clean: detections (FP)",
                     "attacked: detections", "attacked: 1st detection (s)",
                     "attacked: min gap (m)"});
    const std::vector<double> thresholds{1.0, 2.0, 3.0, 4.0, 6.0, 8.0};
    std::vector<std::function<pb::MetricMap()>> cells;
    for (const double threshold : thresholds) {
        const auto run = [threshold](bool attacked) {
            auto config = pb::eval_config();
            config.security.vpd_ada = true;
            pc::Scenario scenario(config);
            // Override every member's detector threshold.
            for (std::size_t i = 1; i < config.platoon_size; ++i) {
                ps::VpdAdaDetector::Params params;
                params.gap_threshold_m = threshold;
                scenario.vehicle(i).vpd() = ps::VpdAdaDetector(params);
            }
            std::shared_ptr<platoon::security::Attack> attack;
            if (attacked) {
                attack = pb::make_attack(pc::AttackKind::kSybil);
                attack->attach(scenario);
            }
            scenario.run_until(pb::kEvalDuration);
            double detections = 0.0;
            double first = -1.0;
            for (std::size_t i = 1; i < config.platoon_size; ++i) {
                detections += static_cast<double>(
                    scenario.vehicle(i).vpd().detections());
                const double f = scenario.vehicle(i).vpd().first_detection();
                if (f >= 0.0 && (first < 0.0 || f < first)) first = f;
            }
            auto m = scenario.summarize().as_map();
            m["vpd"] = detections;
            m["first"] = first;
            return m;
        };
        cells.emplace_back([run] { return run(false); });
        cells.emplace_back([run] { return run(true); });
    }
    const auto results = pc::run_grid(std::move(cells), pb::jobs());
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
        const auto& clean = results[2 * i];
        const auto& attacked = results[2 * i + 1];
        const double first = pb::metric(attacked, "first", -1.0);
        table.add_row(
            {pc::Table::num(thresholds[i]),
             pc::Table::num(pb::metric(clean, "vpd")),
             pc::Table::num(pb::metric(attacked, "vpd")),
             first >= 0.0 ? pc::Table::num(first - 20.0) : "never",
             pc::Table::num(pb::metric(attacked, "min_gap_m"))});
    }
    table.print(std::cout);
}

void pseudonym_period_sweep() {
    pc::print_banner(std::cout,
                     "Pseudonym rotation period vs eavesdropper linkability");
    pc::Table table({"rotation period (s)", "longest linkable track (s)",
                     "identities seen"});
    const std::vector<double> periods{0.0, 5.0, 10.0, 20.0, 40.0};
    std::vector<std::function<pb::MetricMap()>> cells;
    for (const double period : periods) {
        cells.emplace_back([period] {
            auto config = pb::eval_config();
            config.security.auth_mode = pcr::AuthMode::kSignature;
            config.security.pseudonym_rotation_s = period;
            pc::Scenario scenario(config);
            platoon::security::EavesdropAttack attack;
            attack.attach(scenario);
            scenario.run_until(pb::kEvalDuration);
            pb::MetricMap stats;
            attack.collect(stats);
            stats["longest_track_s"] = attack.longest_track_s();
            return stats;
        });
    }
    const auto results = pc::run_grid(std::move(cells), pb::jobs());
    for (std::size_t i = 0; i < periods.size(); ++i) {
        const auto& stats = results[i];
        table.add_row({periods[i] == 0.0 ? "never" : pc::Table::num(periods[i]),
                       pc::Table::num(pb::metric(stats, "longest_track_s")),
                       pc::Table::num(
                           pb::metric(stats, "attack.identities_tracked"))});
    }
    table.print(std::cout);
}

void trust_vs_quarantine() {
    pc::print_banner(std::cout,
                     "Trust management (open challenge VI-B.3) stacked on "
                     "VPD-ADA vs quarantine alone (Sybil attack)");
    pc::Table table({"defense stack", "spacing RMS (m)", "CACC avail",
                     "min gap (m)", "collisions"});
    struct Case {
        const char* name;
        bool vpd;
        bool trust;
    };
    for (const Case& c : {Case{"none", false, false},
                          Case{"vpd-ada quarantine", true, false},
                          Case{"vpd-ada + trust", true, true}}) {
        auto config = pb::eval_config();
        config.security.vpd_ada = c.vpd;
        config.security.trust_management = c.trust;
        pc::Scenario scenario(config);
        auto attack = pb::make_attack(pc::AttackKind::kSybil);
        attack->attach(scenario);
        scenario.run_until(pb::kEvalDuration);
        const auto m = scenario.summarize().as_map();
        table.add_row({c.name,
                       pc::Table::num(pb::metric(m, "spacing_rms_m")),
                       pc::Table::num(pb::metric(m, "cacc_availability")),
                       pc::Table::num(pb::metric(m, "min_gap_m")),
                       pc::Table::num(pb::metric(m, "collisions"))});
    }
    table.print(std::cout);
    std::cout << "\n(Quarantine protects by retreating to radar ACC; trust "
                 "surgically drops the lying identity and keeps CACC on "
                 "the honest chain.)\n";
}

void rogue_rsu_postures() {
    pc::print_banner(std::cout,
                     "Rogue RSU (open challenge VI-A.2): key substitution "
                     "vs infrastructure-trust posture");
    pc::Table table({"posture", "tail CACC avail", "bad-tag rejections",
                     "spacing RMS (m)"});
    struct Case {
        const char* name;
        bool signed_infra;
    };
    for (const Case& c : {Case{"legacy (unsigned infra accepted)", false},
                          Case{"default (TA-certified only)", true}}) {
        auto config = pb::eval_config();
        config.security.auth_mode = platoon::crypto::AuthMode::kGroupMac;
        config.security.require_signed_infrastructure = c.signed_infra;
        pc::Scenario scenario(config);
        ps::RogueRsuAttack attack;
        attack.attach(scenario);
        scenario.run_until(pb::kEvalDuration);
        const auto m = scenario.summarize().as_map();
        table.add_row(
            {c.name,
             pc::Table::num(scenario.tail().stack().cacc_availability()),
             pc::Table::num(pb::metric(m, "rejected_auth")),
             pc::Table::num(pb::metric(m, "spacing_rms_m"))});
    }
    table.print(std::cout);
}

}  // namespace

int main() {
    pb::obs_init();
    pb::print_jobs_banner("bench_ablation_defense");
    fka_noise_sweep();
    vpd_threshold_sweep();
    pseudonym_period_sweep();
    trust_vs_quarantine();
    rogue_rsu_postures();
    pb::write_bench_json("bench_ablation_defense",
                         "defense-parameter sweeps", 42);
    return 0;
}
