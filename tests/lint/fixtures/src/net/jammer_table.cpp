// Fixture: iterates a member declared only in its own header, inside
// src/net/ (simulation scope). Never compiled.
#include "net/jammer_table.hpp"

double JammerTable::total_power_mw() const {
    double total = 0.0;
    for (const auto& [id, mw] : power_mw_) total += mw;  // line 7: no-unordered-iteration
    return total;
}
