// Host-speed gauge.
//
// A shared 4-vCPU Xeon VM changes speed by up to 1.5x over
// seconds to minutes: co-tenants contend for its shared caches and memory,
// while register-only code runs at a steady speed. Raw host time therefore
// cannot compare two runs made minutes apart. The gauge measures that speed
// alongside the work with a fixed kernel that is independent of the library
// (pseudo-random read-modify-write over a 4 MiB table, which spills out of
// L2 as the simulator does). The kernel runs between measured units, and a
// unit's host time is scaled to the gauge's reference speed:
//
//   reference_ns = host_ns * kReferenceNs / mean(sample before, sample after)
//
// In the timed phase each sample starts from the cache state the work left:
// after a corridor chunk or an eval replication the table has been pushed
// out of L2, as the simulator's own data is, and the gauge then tracks the
// simulator best. A set-up is too small to push it out reliably, and how
// much it pushes out would depend on the set-up's own footprint; so set-ups
// are gauged from memory, with the table flushed from the caches first.
// The table adds 4 MiB to the process's resident set.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// A host-time measurement and the number of gauge samples taken before it
/// ended: samples[gauge - 1] opened it, samples[gauge] closes it.
struct Timing {
    std::int64_t ns = 0;
    std::size_t gauge = 0;
};

class Gauge {
public:
    /// The kernel's duration at the reference speed (about its duration on
    /// a 4-vCPU Xeon VM when co-tenants are quiet).
    static constexpr double kReferenceNs = 2.5e6;

    Gauge();

    /// Runs the kernel once, from the cache state the last unit left, and
    /// records its host duration.
    void sample();

    /// The same, with the table flushed from the caches first (x86; on
    /// other targets the same as sample()).
    void sample_from_memory();

    /// Stamps a measurement that ends now.
    [[nodiscard]] Timing stamp(std::int64_t ns) const {
        return {ns, samples_.size()};
    }

    /// `timing` in seconds at the reference speed. Needs the samples on
    /// both sides of it, or at least the one before it.
    [[nodiscard]] double reference_s(const Timing& timing) const;

    [[nodiscard]] const std::vector<std::int64_t>& samples() const {
        return samples_;
    }

private:
    std::vector<std::uint64_t> table_;
    std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
    std::vector<std::int64_t> samples_;
};

}  // namespace perfbench
