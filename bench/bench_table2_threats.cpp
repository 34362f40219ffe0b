// Table II reproduction: every threat in the paper's catalogue, run against
// the simulated platoon, with the *measured* impact backing the table's
// qualitative "how the attack will compromise the platoon" column.
//
// Per attack: a clean baseline and an attacked run (3 seeds each), the
// attack's headline metric, and the paper's claim checked against the
// measured direction.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/risk.hpp"

namespace pb = platoon::bench;
namespace pc = platoon::core;

namespace {

struct Row {
    pc::AttackKind kind;
    pb::MetricMap clean;
    pb::MetricMap attacked;
};

void print_table2(const std::vector<Row>& rows) {
    const auto& tax = pc::Taxonomy::instance();

    pc::print_banner(std::cout,
                     "Table II -- threats to platoons: measured impact "
                     "(6-truck CACC platoon, 70 s, attack from t=20 s, "
                     "mean of 3 seeds)");
    pc::Table table({"attack", "compromises", "headline metric", "clean",
                     "attacked", "impact", "claim reproduced?"});
    for (const auto& row : rows) {
        const auto& entry = tax.attack(row.kind);
        const auto headline = pb::headline_for(row.kind);
        std::string attrs;
        for (std::size_t i = 0; i < entry.compromises.size(); ++i) {
            if (i > 0) attrs += "+";
            attrs += pc::to_string(entry.compromises[i]);
        }
        const double clean = pb::metric(row.clean, headline.metric);
        const double attacked = pb::metric(row.attacked, headline.metric);
        const double sign = headline.higher_is_worse ? 1.0 : -1.0;
        const bool harmed =
            sign * (attacked - clean) > std::max(0.05 * std::abs(clean), 1e-3);

        std::string impact;
        if (headline.higher_is_worse && clean > 1e-9) {
            impact = pc::Table::num(attacked / clean) + "x";
        } else {
            impact = pc::Table::num(attacked - clean) + " delta";
        }
        table.add_row({pc::to_string(row.kind), attrs,
                       headline.metric + " (" + headline.unit + ")",
                       pc::Table::num(clean), pc::Table::num(attacked), impact,
                       harmed ? "yes" : "NO"});
    }
    table.print(std::cout);

    pc::print_banner(std::cout, "Attack-side statistics");
    pc::Table stats({"attack", "statistic", "value"});
    for (const auto& row : rows) {
        for (const auto& [name, value] : row.attacked) {
            if (name.rfind("attack.", 0) == 0) {
                stats.add_row({pc::to_string(row.kind), name.substr(7),
                               pc::Table::num(value)});
            }
        }
    }
    stats.print(std::cout);

    pc::print_banner(std::cout, "Secondary effects (attacked runs)");
    pc::Table side({"attack", "collisions", "min gap (m)", "CACC avail",
                    "fuel (L/100km)", "PDR"});
    for (const auto& row : rows) {
        side.add_row({pc::to_string(row.kind),
                      pc::Table::num(pb::metric(row.attacked, "collisions")),
                      pc::Table::num(pb::metric(row.attacked, "min_gap_m")),
                      pc::Table::num(pb::metric(row.attacked, "cacc_availability")),
                      pc::Table::num(pb::metric(row.attacked, "fuel_l_per_100km")),
                      pc::Table::num(pb::metric(row.attacked, "pdr"))});
    }
    side.print(std::cout);
}

std::vector<Row> run_all() {
    // The grid is compiled from scenarios/table2_threats.json: one
    // (clean, attacked) cell pair per attack in catalogue order, 3 seeds
    // each. run_eval_grid fans the whole grid out at (cell x seed)
    // granularity over PLATOON_JOBS workers and returns seed-order-folded
    // means, so the printed table is byte-identical at any job count.
    const auto compiled = pb::load_scenario("table2_threats");
    const auto results =
        pb::run_eval_grid(pb::to_eval_cells(compiled.cells), pb::jobs());

    std::vector<Row> rows;
    for (int k = 0; k < static_cast<int>(pc::AttackKind::kCount_); ++k) {
        Row row;
        row.kind = static_cast<pc::AttackKind>(k);
        row.clean = results[static_cast<std::size_t>(2 * k)];
        row.attacked = results[static_cast<std::size_t>(2 * k + 1)];
        rows.push_back(std::move(row));
    }
    return rows;
}

}  // namespace

void print_risk_register(const std::vector<Row>& rows) {
    // Open challenge VI-B.4: an ISO/SAE 21434-style risk register where
    // severity comes from the MEASURED impact above, not expert guesses.
    std::vector<std::pair<pc::AttackKind,
                          std::pair<pb::MetricMap, pb::MetricMap>>>
        measured;
    for (const auto& row : rows)
        measured.push_back({row.kind, {row.attacked, row.clean}});
    const auto reg = pc::build_risk_register(measured);

    pc::print_banner(std::cout,
                     "Risk register (open challenge VI-B.4): feasibility x "
                     "measured severity");
    pc::Table table({"rank", "attack", "likelihood", "measured severity",
                     "risk score", "rationale"});
    int rank = 1;
    for (const auto& entry : reg) {
        table.add_row({std::to_string(rank++), pc::to_string(entry.kind),
                       pc::to_string(entry.likelihood),
                       pc::to_string(entry.severity),
                       std::to_string(entry.score), entry.rationale});
    }
    table.print(std::cout);
}

int main() {
    pb::obs_init();
    pb::print_jobs_banner("bench_table2_threats");
    const auto rows = run_all();
    print_table2(rows);
    print_risk_register(rows);
    pb::write_bench_json("bench_table2_threats",
                         "Table II grid: 9 attacks x clean/attacked x 3 seeds",
                         42);
    return 0;
}
