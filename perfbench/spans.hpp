// Outside-in spans for the benchmark program.
//
// The benchmark wraps every public call it makes into the library (scenario
// compile, world build, attack attach, each 100 ms step, each eval
// replication, summarize) in a Scope. A scope always measures its own
// duration, because the untraced run needs those timings too; only a
// recording Tracer keeps the span (name, start, end, parent, run id) and
// the deltas of the obs counters across it. Spans stay in memory and are
// written out once, at exit. Nothing is added inside the library: per-layer
// time inside a step is the library's own inclusive obs timers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic time in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

struct Span {
    const char* name = "";
    std::uint32_t run = 0;       ///< Set-up, pass or replication it belongs to.
    std::int32_t parent = -1;    ///< Index of the enclosing span; -1 = root.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::map<std::string, std::uint64_t> counters;  ///< Non-zero deltas.

    [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
public:
    /// A recording tracer keeps spans and counter deltas; a silent one only
    /// hands durations back to the caller.
    explicit Tracer(bool recording) : recording_(recording) {}

    class Scope {
    public:
        /// `name` must be a string literal: spans keep the pointer.
        Scope(Tracer& tracer, const char* name, std::uint32_t run);
        ~Scope() { stop(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// Closes the span (idempotent) and returns its duration.
        std::int64_t stop();

    private:
        Tracer& tracer_;
        std::int64_t start_ns_;
        std::int64_t duration_ns_ = -1;
        std::int32_t index_ = -1;  ///< Recorded span, or -1.
        std::map<std::string, std::uint64_t> counters_at_start_;
    };

    [[nodiscard]] bool recording() const { return recording_; }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Per span: its duration minus the union of the intervals its child
    /// spans cover.
    [[nodiscard]] std::vector<std::int64_t> self_ns() const;

    /// Writes every span, with its self time, as one JSON array.
    [[nodiscard]] bool write_json(const std::string& path) const;

private:
    bool recording_;
    std::vector<Span> spans_;
    std::int32_t open_ = -1;  ///< Innermost open recorded span.
};

}  // namespace perfbench
