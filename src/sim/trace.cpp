#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>

#include "sim/assert.hpp"

namespace platoon::sim {

double TraceSeries::min() const {
    PLATOON_EXPECTS(!values_.empty());
    return *std::min_element(values_.begin(), values_.end());
}

double TraceSeries::max() const {
    PLATOON_EXPECTS(!values_.empty());
    return *std::max_element(values_.begin(), values_.end());
}

double TraceSeries::mean() const {
    PLATOON_EXPECTS(!values_.empty());
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
}

double TraceSeries::rms() const {
    PLATOON_EXPECTS(!values_.empty());
    double sum = 0.0;
    for (double v : values_) sum += v * v;
    return std::sqrt(sum / static_cast<double>(values_.size()));
}

double TraceSeries::stddev() const {
    PLATOON_EXPECTS(!values_.empty());
    const double m = mean();
    double sum = 0.0;
    for (double v : values_) sum += (v - m) * (v - m);
    return std::sqrt(sum / static_cast<double>(values_.size()));
}

double TraceSeries::last() const {
    PLATOON_EXPECTS(!values_.empty());
    return values_.back();
}

double TraceSeries::mean_after(SimTime from) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < values_.size(); ++i) {
        if (times_[i] >= from) {
            sum += values_[i];
            ++n;
        }
    }
    PLATOON_EXPECTS(n > 0);
    return sum / static_cast<double>(n);
}

double TraceSeries::max_abs_after(SimTime from) const {
    double best = 0.0;
    for (std::size_t i = 0; i < values_.size(); ++i) {
        if (times_[i] >= from) best = std::max(best, std::abs(values_[i]));
    }
    return best;
}

TraceSeries& TraceRecorder::series(const std::string& name) {
    for (auto& s : series_) {
        if (s.name() == name) return s;
    }
    series_.emplace_back(name);
    return series_.back();
}

const TraceSeries* TraceRecorder::find(const std::string& name) const {
    for (const auto& s : series_) {
        if (s.name() == name) return &s;
    }
    return nullptr;
}

}  // namespace platoon::sim
