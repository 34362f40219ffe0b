// "Table V" -- benign faults beside the attacks they mimic. Every fault
// class in src/fault (burst packet loss, node crash, sensor dropout, clock
// drift) is run through the same evaluation platoon as its matched Table II
// attack, and the bench prints the two stories side by side:
//
//   1. stability -- spacing RMS, minimum gap, CACC availability, PDR and
//      trust revocations per cell: how much platoon degradation a benign
//      fault causes compared to a deliberate attack on the same channel;
//   2. detection -- per-detector false alarms on the fault cells (every
//      flagged row is a false alarm: nothing is malicious) against the
//      matched attack's recall, plus a headline false-alarm summary.
//
// A misbehavior stack that revokes a truck with a rain-faded radio is
// measured here, not discovered in deployment. Banners go to stderr; every
// table goes to stdout and is byte-identical at any PLATOON_JOBS count.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "detect/harness.hpp"

namespace pb = platoon::bench;
namespace pc = platoon::core;
namespace pd = platoon::detect;
namespace ps = platoon::scen;

namespace {

std::string opt_num(double v, bool defined, int precision = 3) {
    return defined ? pc::Table::num(v, precision) : std::string("-");
}

// The Table V matrix is compiled from scenarios/table_faults.json: a clean
// baseline grid, then per fault class a fault cell (with_attack = false, so
// every detector flag is a false alarm by construction) beside its matched
// Table II attack cell. Fault timing anchors to the attack-start time
// (t=20 s of a 70 s run) inside the description; the clock-drift cell is
// normalized to a signed deployment there via a grid override, so the
// incompatible-combination validator (drift without timestamp checks)
// accepts it for the same reason the old hand-built config did.

void add_stability_row(pc::Table& table, const std::string& cell,
                       const pc::MetricMap& m) {
    const bool has_gap = pb::metric(m, "has_gap_samples", 0.0) > 0.5;
    table.add_row({cell,
                   pc::Table::num(pb::metric(m, "spacing_rms_m", 0.0), 3),
                   opt_num(pb::metric(m, "min_gap_m", 0.0), has_gap, 2),
                   pc::Table::num(pb::metric(m, "cacc_availability", 0.0), 3),
                   pc::Table::num(pb::metric(m, "pdr", 0.0), 3),
                   pc::Table::num(pb::metric(m, "revoked_credentials", 0.0), 0)});
}

void run_and_print() {
    const auto compiled = pb::load_scenario("table_faults");
    const std::vector<ps::CompiledCell>& cells = compiled.cells;
    // cells[0] is the clean baseline; cells[1 + 2r] / cells[2 + 2r] are row
    // r's fault and matched-attack cells, in description grid order.
    const std::size_t n_rows = (cells.size() - 1) / 2;

    // ------------------------------------------------------------------
    // Grid A: platoon stability. Clean baseline, then for each row the
    // fault cell (no attack) and the matched attack cell.
    const auto metrics =
        pb::run_eval_grid(pb::to_eval_cells(cells), pb::jobs());

    pc::print_banner(
        std::cout,
        "Table V -- benign faults vs matched attacks: platoon stability "
        "(spacing RMS, min gap, CACC availability, PDR, revocations)");
    pc::Table table({"cell", "spacing_rms_m", "min_gap_m", "cacc_avail",
                     "pdr", "revoked"});
    add_stability_row(table, "(clean)", metrics[0]);
    for (std::size_t r = 0; r < n_rows; ++r) {
        add_stability_row(table,
                          std::string("fault:") + cells[1 + 2 * r].fault,
                          metrics[1 + 2 * r]);
        add_stability_row(
            table,
            std::string("attack:") + pc::to_string(cells[2 + 2 * r].attack),
            metrics[2 + 2 * r]);
    }
    table.print(std::cout);

    // ------------------------------------------------------------------
    // Grid B: the detector bank's view. Fault cells carry with_attack =
    // false, so every flagged row is by construction a false alarm.
    std::vector<pd::DetectionCell> detection;
    for (const ps::CompiledCell& cell : cells)
        detection.push_back(
            {cell.config, cell.attack, cell.with_attack, cell.seeds, {}});
    const auto verdicts = pd::run_detection_grid(detection, pb::jobs());

    pc::print_banner(
        std::cout,
        "Table V -- detector false alarms under benign faults vs recall on "
        "the matched attack (fault cells have zero malicious rows)");
    pc::Table bank({"cell", "detector", "fa_per_h", "recall", "flagged"});
    const auto add_bank_rows = [&bank](const std::string& cell,
                                       const std::vector<pd::DetectorSummary>&
                                           summaries,
                                       bool attacked) {
        for (const pd::DetectorSummary& s : summaries) {
            bank.add_row({cell, s.detector,
                          pc::Table::num(s.false_alarms_per_hour, 1),
                          opt_num(s.recall, attacked),
                          pc::Table::num(s.flagged_rows, 1)});
        }
    };
    add_bank_rows("(clean)", verdicts[0], false);
    for (std::size_t r = 0; r < n_rows; ++r) {
        add_bank_rows(std::string("fault:") + cells[1 + 2 * r].fault,
                      verdicts[1 + 2 * r], false);
        add_bank_rows(
            std::string("attack:") + pc::to_string(cells[2 + 2 * r].attack),
            verdicts[2 + 2 * r], true);
    }
    bank.print(std::cout);

    // ------------------------------------------------------------------
    // Headline: per fault, the worst-offending detector's false-alarm rate
    // and whether the trust pipeline revoked anyone for being unlucky.
    pc::print_banner(std::cout,
                     "Table V headline -- worst-case false-alarm rate and "
                     "revocations per benign fault");
    pc::Table headline({"fault", "max_fa_per_h", "worst_detector", "revoked",
                        "matched_attack", "attack_max_recall"});
    for (std::size_t r = 0; r < n_rows; ++r) {
        double max_fa = 0.0;
        std::string worst = "(none)";
        for (const pd::DetectorSummary& s : verdicts[1 + 2 * r]) {
            if (s.false_alarms_per_hour > max_fa) {
                max_fa = s.false_alarms_per_hour;
                worst = s.detector;
            }
        }
        double max_recall = 0.0;
        for (const pd::DetectorSummary& s : verdicts[2 + 2 * r])
            max_recall = std::max(max_recall, s.recall);
        headline.add_row(
            {cells[1 + 2 * r].fault, pc::Table::num(max_fa, 1), worst,
             pc::Table::num(
                 pb::metric(metrics[1 + 2 * r], "revoked_credentials", 0.0), 0),
             pc::to_string(cells[2 + 2 * r].attack),
             pc::Table::num(max_recall, 3)});
    }
    headline.print(std::cout);
}

}  // namespace

int main() {
    pb::obs_init();
    pb::print_jobs_banner("bench_table_faults");
    run_and_print();
    pb::write_bench_json("bench_table_faults",
                         "Table V benign-fault vs attack grid", 42);
    return 0;
}
