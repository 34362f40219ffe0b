// Sorted-by-x snapshot of moving things: the radio nodes (net::Network) and
// the vehicles' rear bumpers (the scenario's radar lookup).
//
// Positions are sampled once per rebuild and then queried many times, so
// every lookup has to tolerate *stale* coordinates. Callers widen their
// query window by a slack term (max node speed x snapshot age, plus a
// safety margin) so that an entry whose stale x falls outside the window is
// guaranteed to also fail the caller's exact check at its fresh position.
// That guarantee is what lets Network bulk-count the non-candidates as
// out-of-range without sampling their positions. An infinite margin makes
// the window hold every entry, which is how tests/net/test_spatial_delivery
// turns the same code into its all-pairs reference.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/scheduler.hpp"

namespace platoon::net {

class SpatialIndex {
public:
    struct Entry {
        double x = 0.0;
        sim::NodeId id;
        bool vlc = false;        ///< Participates in the optical chain.
        std::size_t handle = 0;  ///< Caller-defined, e.g. a slot in its table.
    };

    /// Replaces the snapshot. Entries are sorted by (x, id); the id
    /// tie-break keeps the stored order deterministic when two entries share
    /// a coordinate.
    void rebuild(std::vector<Entry> entries, sim::SimTime at);

    /// Every entry with stale x >= lo, in (x, id) order. Callers walk it and
    /// stop at their own bound (a window edge or an early exit).
    [[nodiscard]] std::span<const Entry> from(double lo) const;

    [[nodiscard]] sim::SimTime built_at() const { return built_at_; }
    [[nodiscard]] bool ever_built() const { return built_at_ >= 0.0; }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }

private:
    std::vector<Entry> entries_;  // sorted by (x, id)
    sim::SimTime built_at_ = -1.0;
};

}  // namespace platoon::net
