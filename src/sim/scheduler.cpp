#include "sim/scheduler.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "obs/timer.hpp"
#include "sim/assert.hpp"

namespace platoon::sim {

namespace {
obs::Counter g_events_executed{"sim.events_executed"};
}  // namespace

EventHandle Scheduler::schedule_at(SimTime at, Action action) {
    PLATOON_EXPECTS(at >= now_);
    PLATOON_EXPECTS(action != nullptr);
    const std::uint64_t seq = next_seq_++;
    live_.insert(seq);
    heap_.push(Entry{at, seq, 0.0, std::make_shared<Action>(std::move(action))});
    return EventHandle{seq};
}

EventHandle Scheduler::schedule_in(SimTime delay, Action action) {
    PLATOON_EXPECTS(delay >= 0.0);
    return schedule_at(now_ + delay, std::move(action));
}

EventHandle Scheduler::schedule_every(SimTime first, SimTime period,
                                      Action action) {
    PLATOON_EXPECTS(first >= now_);
    PLATOON_EXPECTS(period > 0.0);
    PLATOON_EXPECTS(action != nullptr);
    const std::uint64_t seq = next_seq_++;
    live_.insert(seq);
    heap_.push(
        Entry{first, seq, period, std::make_shared<Action>(std::move(action))});
    return EventHandle{seq};
}

void Scheduler::cancel(EventHandle h) {
    if (!h.valid()) return;
    live_.erase(h.seq_);
}

bool Scheduler::pop_next(Entry& out) {
    while (!heap_.empty()) {
        Entry top = heap_.top();
        heap_.pop();
        if (!live_.contains(top.seq)) continue;  // cancelled
        out = std::move(top);
        return true;
    }
    return false;
}

void Scheduler::dispatch(const Entry& e) {
    PLATOON_ASSERT(e.at >= now_);
    now_ = e.at;
    if (e.period > 0.0) {
        // Reschedule before running so the action can cancel itself.
        heap_.push(Entry{e.at + e.period, e.seq, e.period, e.action});
    } else {
        live_.erase(e.seq);
    }
    (*e.action)();
    ++executed_;
}

bool Scheduler::step() {
    Entry e;
    if (!pop_next(e)) return false;
    dispatch(e);
    g_events_executed.inc();
    return true;
}

std::uint64_t Scheduler::run_until(SimTime until) {
    PLATOON_EXPECTS(until >= now_);
    const obs::ScopedTimer timer("sim.run");
    std::uint64_t n = 0;
    stop_requested_ = false;
    for (;;) {
        Entry e;
        if (!pop_next(e)) break;
        if (e.at > until) {
            // Not due yet: put it back (it is still live) and stop.
            heap_.push(std::move(e));
            break;
        }
        dispatch(e);
        ++n;
        if (stop_requested_) {
            g_events_executed.add(n);
            return n;
        }
    }
    now_ = std::max(now_, until);
    g_events_executed.add(n);
    return n;
}

}  // namespace platoon::sim
