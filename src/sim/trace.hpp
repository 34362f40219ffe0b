// In-memory time-series trace recorder, used by metrics collectors.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace platoon::sim {

/// One named scalar time series (e.g. "vehicle3.gap").
class TraceSeries {
public:
    explicit TraceSeries(std::string name) : name_(std::move(name)) {}

    void record(SimTime t, double value) {
        times_.push_back(t);
        values_.push_back(value);
    }

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] std::size_t size() const { return values_.size(); }
    [[nodiscard]] bool empty() const { return values_.empty(); }
    [[nodiscard]] const std::vector<SimTime>& times() const { return times_; }
    [[nodiscard]] const std::vector<double>& values() const { return values_; }

    /// Summary statistics over all recorded values.
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;
    [[nodiscard]] double mean() const;
    [[nodiscard]] double rms() const;
    [[nodiscard]] double stddev() const;
    /// Last recorded value; series must be non-empty.
    [[nodiscard]] double last() const;
    /// Mean over samples with time >= from.
    [[nodiscard]] double mean_after(SimTime from) const;
    /// max(|value|) over samples with time >= from.
    [[nodiscard]] double max_abs_after(SimTime from) const;

private:
    std::string name_;
    std::vector<SimTime> times_;
    std::vector<double> values_;
};

/// A bag of named series; creates on first use.
class TraceRecorder {
public:
    TraceSeries& series(const std::string& name);
    [[nodiscard]] const TraceSeries* find(const std::string& name) const;
    [[nodiscard]] std::size_t series_count() const { return series_.size(); }

private:
    std::vector<TraceSeries> series_;
};

}  // namespace platoon::sim
