// Fixture: a class whose header declares a hash-ordered member; its .cpp
// (jammer_table.cpp) iterates it. Never compiled.
#pragma once

#include <unordered_map>

class JammerTable {
public:
    double total_power_mw() const;

private:
    std::unordered_map<int, double> power_mw_;
};
