// Table I reproduction: the survey-of-surveys, regenerated from the
// machine-readable taxonomy, cross-checked against the implemented attack
// suite (every platoon-communication attack named by the paper maps to a
// runnable class in security/attacks).
#include <iostream>
#include <sstream>

#include "bench_common.hpp"

namespace pb = platoon::bench;
namespace pc = platoon::core;

namespace {

void print_table1() {
    const auto& tax = pc::Taxonomy::instance();

    pc::print_banner(std::cout,
                     "Table I -- related surveys on CAV/VANET/platoon security");
    pc::Table table({"survey", "classification", "attacks discussed"});
    for (const auto& survey : tax.surveys()) {
        std::ostringstream attacks;
        for (std::size_t i = 0; i < survey.attacks_discussed.size(); ++i) {
            if (i > 0) attacks << ", ";
            attacks << survey.attacks_discussed[i];
            if (attacks.str().size() > 70 &&
                i + 1 < survey.attacks_discussed.size()) {
                attacks << ", ...";
                break;
            }
        }
        table.add_row({survey.authors_year, survey.classification,
                       attacks.str()});
    }
    table.print(std::cout);

    pc::print_banner(
        std::cout,
        "Cross-check: paper attack catalogue -> implemented components");
    pc::Table check({"attack (Table II)", "attribute(s)", "implementation",
                     "references", "factory"});
    for (const auto& attack : tax.attacks()) {
        std::string attrs;
        for (std::size_t i = 0; i < attack.compromises.size(); ++i) {
            if (i > 0) attrs += "+";
            attrs += pc::to_string(attack.compromises[i]);
        }
        const auto instance = pb::make_attack(attack.kind);
        check.add_row({pc::to_string(attack.kind), attrs,
                       attack.implemented_by, attack.references,
                       instance ? "ok" : "MISSING"});
    }
    check.print(std::cout);
}

}  // namespace

int main() {
    pb::obs_init();
    print_table1();
    pb::write_bench_json("bench_table1_survey", "Table I survey (static)", 0);
    return 0;
}
