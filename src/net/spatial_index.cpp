#include "net/spatial_index.hpp"

#include <algorithm>

namespace platoon::net {

void SpatialIndex::rebuild(std::vector<Entry> entries, sim::SimTime at) {
    entries_ = std::move(entries);
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                  if (a.x != b.x) return a.x < b.x;
                  return a.id < b.id;
              });
    built_at_ = at;
}

std::span<const SpatialIndex::Entry> SpatialIndex::from(double lo) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), lo,
        [](const Entry& e, double bound) { return e.x < bound; });
    return {it, entries_.end()};
}

}  // namespace platoon::net
