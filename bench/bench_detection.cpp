// "Table IV" -- the misbehavior-detection benchmark the survey stops short
// of: for every Table II attack, run the evaluation platoon with the online
// detector bank installed and score each detector's per-message precision /
// recall / F1, time-to-detect, time-to-isolation (first true alarm -> TA
// quorum adjudication) and false-alarm rate. A threshold sweep over the
// scalar detectors prints the ROC operating points, and --export-dataset=F
// writes the full labeled per-beacon corpus as long-format CSV.
//
// Banners go to stderr; every table goes to stdout and is byte-identical at
// any PLATOON_JOBS count (the grids fold in cell/seed order).
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "detect/harness.hpp"

namespace pb = platoon::bench;
namespace pc = platoon::core;
namespace pd = platoon::detect;

namespace {

constexpr std::size_t kSeeds = 2;

std::string opt_num(double v, bool defined, int precision = 3) {
    return defined ? pc::Table::num(v, precision) : std::string("-");
}

void add_rows(pc::Table& table, const std::string& attack,
              const std::vector<pd::DetectorSummary>& summaries) {
    for (const pd::DetectorSummary& s : summaries) {
        const bool has_malicious = s.malicious_rows > 0.0;
        const bool flagged = s.flagged_rows > 0.0;
        table.add_row({attack, s.detector,
                       opt_num(s.precision, flagged),
                       opt_num(s.recall, has_malicious),
                       opt_num(s.f1, has_malicious && flagged),
                       opt_num(s.mean_ttd_s, s.detect_rate > 0.0),
                       opt_num(s.mean_tti_s, s.isolate_rate > 0.0),
                       pc::Table::num(s.false_alarms_per_hour, 1)});
    }
}

void run_and_print() {
    const int n_attacks = static_cast<int>(pc::AttackKind::kCount_);

    // Table IV grid: the clean baseline first (the zero-false-alarm
    // contract), then one cell per Table II attack.
    std::vector<pd::DetectionCell> grid;
    grid.push_back({pd::detection_config(), pc::AttackKind::kReplay, false,
                    kSeeds, {}});
    for (int a = 0; a < n_attacks; ++a)
        grid.push_back({pd::detection_config(),
                        static_cast<pc::AttackKind>(a), true, kSeeds, {}});
    const auto results = pd::run_detection_grid(grid, pb::jobs());

    pc::print_banner(
        std::cout,
        "Table IV -- detection quality per attack x detector "
        "(per-message precision/recall, TTD from attack start, TTI to TA "
        "adjudication, false alarms per hour)");
    pc::Table table({"attack", "detector", "precision", "recall", "f1",
                     "ttd_s", "tti_s", "fa_per_h"});
    add_rows(table, "(clean)", results[0]);
    for (int a = 0; a < n_attacks; ++a)
        add_rows(table, pc::to_string(static_cast<pc::AttackKind>(a)),
                 results[static_cast<std::size_t>(a) + 1]);
    table.print(std::cout);

    // ROC sweep: scale every scalar alarm threshold and print the operating
    // points of the statistical detectors on the attacks they own (replay
    // for the innovation gate, malware FDI for the residual charts).
    const double scales[] = {0.25, 0.5, 1.0, 2.0, 4.0};
    const pc::AttackKind roc_attacks[] = {pc::AttackKind::kReplay,
                                          pc::AttackKind::kMalware};
    std::vector<pd::DetectionCell> roc_grid;
    for (const pc::AttackKind kind : roc_attacks) {
        for (const double scale : scales) {
            pd::BankTuning tuning;
            tuning.threshold_scale = scale;
            roc_grid.push_back(
                {pd::detection_config(), kind, true, kSeeds, tuning});
        }
    }
    const auto roc_results = pd::run_detection_grid(roc_grid, pb::jobs());

    pc::print_banner(std::cout,
                     "ROC -- scalar-detector threshold sweep "
                     "(threshold_scale multiplies every alarm threshold)");
    pc::Table roc({"attack", "detector", "scale", "tpr", "fpr"});
    const char* scalar_detectors[] = {"innovation-gate", "ewma-residual",
                                      "cusum-residual"};
    std::size_t cell = 0;
    for (const pc::AttackKind kind : roc_attacks) {
        for (const double scale : scales) {
            for (const pd::DetectorSummary& s : roc_results[cell]) {
                for (const char* name : scalar_detectors) {
                    if (s.detector != name) continue;
                    roc.add_row({pc::to_string(kind), s.detector,
                                 pc::Table::num(scale, 2),
                                 pc::Table::num(s.recall, 4),
                                 pc::Table::num(s.false_positive_rate, 6)});
                }
            }
            ++cell;
        }
    }
    roc.print(std::cout);
}

void export_dataset(const std::string& path) {
    const int n_attacks = static_cast<int>(pc::AttackKind::kCount_);
    // One labeled run per Table II attack plus the clean baseline, seed 42,
    // fanned out over PLATOON_JOBS and concatenated in cell order (the file
    // is bit-identical at any job count).
    std::vector<std::function<pd::Dataset()>> cells;
    cells.emplace_back([] {
        return pd::run_detection_once(pd::detection_config(),
                                      pc::AttackKind::kReplay, false)
            .dataset;
    });
    for (int a = 0; a < n_attacks; ++a) {
        cells.emplace_back([a] {
            return pd::run_detection_once(pd::detection_config(),
                                          static_cast<pc::AttackKind>(a), true)
                .dataset;
        });
    }
    const auto datasets = pc::run_grid(std::move(cells), pb::jobs());

    pd::Dataset all;
    for (const pd::Dataset& ds : datasets) all.append(ds);
    std::ofstream out(path);
    all.write_csv(out);
    std::cerr << "bench_detection: wrote " << all.size()
              << " labeled rows to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    pb::obs_init();
    pb::print_jobs_banner("bench_detection");

    std::string export_path;
    for (int i = 1; i < argc; ++i) {
        constexpr const char* kFlag = "--export-dataset=";
        if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0)
            export_path = argv[i] + std::strlen(kFlag);
    }

    run_and_print();
    if (!export_path.empty()) export_dataset(export_path);
    pb::write_bench_json("bench_detection",
                         "Table IV misbehavior-detection grid", 42);
    return 0;
}
