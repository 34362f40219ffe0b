#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint32_t run)
    : tracer_(tracer) {
    if (tracer_.recording_) {
        counters_at_start_ = platoon::obs::counter_snapshot();
        Span span;
        span.name = name;
        span.run = run;
        span.parent = tracer_.open_;
        index_ = static_cast<std::int32_t>(tracer_.spans_.size());
        tracer_.spans_.push_back(std::move(span));
        tracer_.open_ = index_;
    }
    // Read the clock last so the snapshot above is outside the span.
    start_ns_ = now_ns();
}

std::int64_t Tracer::Scope::stop() {
    if (duration_ns_ >= 0) return duration_ns_;
    const std::int64_t end = now_ns();
    duration_ns_ = end - start_ns_;
    if (index_ >= 0) {
        Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
        span.start_ns = start_ns_;
        span.end_ns = end;
        for (const auto& [name, value] : platoon::obs::counter_snapshot()) {
            const auto it = counters_at_start_.find(name);
            const std::uint64_t before =
                it == counters_at_start_.end() ? 0 : it->second;
            if (value != before) span.counters[name] = value - before;
        }
        tracer_.open_ = span.parent;
    }
    return duration_ns_;
}

std::vector<std::int64_t> Tracer::self_ns() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size());
    for (const Span& span : spans_)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.start_ns, span.end_ns);

    std::vector<std::int64_t> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto& covered = children[i];
        std::sort(covered.begin(), covered.end());
        std::int64_t busy = 0;
        std::int64_t reach = spans_[i].start_ns;
        for (auto [start, end] : covered) {
            start = std::max(start, reach);
            end = std::min(end, spans_[i].end_ns);
            if (end > start) {
                busy += end - start;
                reach = end;
            }
        }
        out[i] = spans_[i].duration_ns() - busy;
    }
    return out;
}

bool Tracer::write_json(const std::string& path) const {
    using platoon::obs::Json;
    const std::vector<std::int64_t> self = self_ns();
    Json array = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        Json entry = Json::object();
        entry.set("name", Json::string(span.name));
        entry.set("run", Json::integer(span.run));
        entry.set("parent", Json::integer(span.parent));
        entry.set("start_ns", Json::integer(span.start_ns));
        entry.set("end_ns", Json::integer(span.end_ns));
        entry.set("self_ns", Json::integer(self[i]));
        Json counters = Json::object();
        for (const auto& [name, delta] : span.counters)
            counters.set(name, Json::integer(static_cast<std::int64_t>(delta)));
        entry.set("counters", std::move(counters));
        array.as_array().push_back(std::move(entry));
    }
    std::ofstream out(path);
    out << array.dump(0);
    return static_cast<bool>(out);
}

}  // namespace perfbench
