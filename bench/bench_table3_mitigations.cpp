// Table III reproduction: the defense-mechanism x attack matrix. For every
// (mechanism, attack) pair, run the attacked platoon with the mechanism
// enabled and grade how much of the attack's damage it removed. The matrix
// sign is then compared against the paper's Table III mapping: agreement,
// "measured better than claimed" (our superset findings), or mismatch.
#include <iostream>

#include "bench_common.hpp"

namespace pb = platoon::bench;
namespace pc = platoon::core;

namespace {

struct Cell {
    std::string verdict;
    double defended_headline = 0.0;
};

void run_and_print() {
    const auto& tax = pc::Taxonomy::instance();
    const int n_attacks = static_cast<int>(pc::AttackKind::kCount_);
    const int n_defenses = static_cast<int>(pc::DefenseKind::kCount_);

    // The whole table is one grid compiled from
    // scenarios/table3_mitigations.json: per-attack baselines (clean +
    // undefended-attacked) followed by every (defense, attack) cell, in the
    // description's documented enumeration order. run_eval_grid fans the
    // grid out at (cell x seed) granularity over PLATOON_JOBS workers;
    // results come back in cell order, so the printed matrix is
    // byte-identical at any job count.
    const auto compiled = pb::load_scenario("table3_mitigations");
    const auto results =
        pb::run_eval_grid(pb::to_eval_cells(compiled.cells), pb::jobs());

    std::vector<pb::MetricMap> clean(static_cast<std::size_t>(n_attacks));
    std::vector<pb::MetricMap> attacked(static_cast<std::size_t>(n_attacks));
    for (int a = 0; a < n_attacks; ++a) {
        clean[static_cast<std::size_t>(a)] =
            results[static_cast<std::size_t>(2 * a)];
        attacked[static_cast<std::size_t>(a)] =
            results[static_cast<std::size_t>(2 * a + 1)];
    }

    std::vector<std::vector<Cell>> matrix(
        static_cast<std::size_t>(n_defenses),
        std::vector<Cell>(static_cast<std::size_t>(n_attacks)));
    for (int d = 0; d < n_defenses; ++d) {
        for (int a = 0; a < n_attacks; ++a) {
            const auto kind = static_cast<pc::AttackKind>(a);
            const auto& defended = results[static_cast<std::size_t>(
                2 * n_attacks + d * n_attacks + a)];
            const auto headline = pb::headline_for(kind);
            Cell& cell = matrix[static_cast<std::size_t>(d)]
                               [static_cast<std::size_t>(a)];
            cell.defended_headline = pb::metric(defended, headline.metric);
            cell.verdict = pb::verdict(
                headline, pb::metric(clean[static_cast<std::size_t>(a)], headline.metric),
                pb::metric(attacked[static_cast<std::size_t>(a)], headline.metric),
                cell.defended_headline);
        }
    }

    pc::print_banner(std::cout,
                     "Table III -- mechanism x attack mitigation matrix "
                     "(verdict on each attack's headline metric)");
    std::vector<std::string> headers{"defense \\ attack"};
    for (int a = 0; a < n_attacks; ++a)
        headers.push_back(pc::to_string(static_cast<pc::AttackKind>(a)));
    pc::Table table(headers);
    for (int d = 0; d < n_defenses; ++d) {
        std::vector<std::string> row{
            pc::to_string(static_cast<pc::DefenseKind>(d))};
        for (int a = 0; a < n_attacks; ++a)
            row.push_back(matrix[static_cast<std::size_t>(d)]
                                [static_cast<std::size_t>(a)].verdict);
        table.add_row(std::move(row));
    }
    table.print(std::cout);

    pc::print_banner(std::cout,
                     "Measured matrix vs the paper's Table III mapping");
    pc::Table compare({"defense", "attack", "paper says", "measured",
                       "agreement"});
    for (int d = 0; d < n_defenses; ++d) {
        for (int a = 0; a < n_attacks; ++a) {
            const auto defense = static_cast<pc::DefenseKind>(d);
            const auto kind = static_cast<pc::AttackKind>(a);
            const bool paper = tax.mitigates(defense, kind);
            const std::string& measured =
                matrix[static_cast<std::size_t>(d)]
                      [static_cast<std::size_t>(a)].verdict;
            const bool measured_mitigates =
                measured == "MITIGATED" || measured == "partial";
            std::string agreement;
            if (paper && measured_mitigates) {
                agreement = "agree";
            } else if (!paper && !measured_mitigates) {
                agreement = "agree (no claim)";
            } else if (!paper && measured_mitigates) {
                agreement = "measured SUPERSET of paper";
            } else {
                agreement = "MISMATCH (paper claims, not measured)";
            }
            // Only print the interesting rows: claims and supersets.
            if (paper || measured_mitigates) {
                compare.add_row({pc::to_string(defense), pc::to_string(kind),
                                 paper ? "mitigates" : "-", measured,
                                 agreement});
            }
        }
    }
    compare.print(std::cout);

    pc::print_banner(std::cout, "Open challenges (paper Table III, col. 3)");
    pc::Table open({"defense", "open challenge"});
    for (const auto& defense : tax.defenses())
        open.add_row({pc::to_string(defense.kind), defense.open_challenge});
    open.print(std::cout);
}

}  // namespace

int main() {
    pb::obs_init();
    pb::print_jobs_banner("bench_table3_mitigations");
    run_and_print();
    pb::write_bench_json("bench_table3_mitigations",
                         "Table III defense-vs-attack grid", 42);
    return 0;
}
