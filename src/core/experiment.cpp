#include "core/experiment.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hpp"

namespace platoon::core {

MetricMap run_once(const RunSpec& spec) {
    Scenario scenario(spec.scenario);
    if (spec.setup) spec.setup(scenario);
    scenario.run_until(spec.duration_s);
    MetricMap out = scenario.summarize().as_map();
    if (spec.collect) spec.collect(scenario, out);
    return out;
}

Aggregate aggregate_runs(const std::vector<MetricMap>& runs) {
    Aggregate agg;
    agg.runs = runs.size();
    if (runs.empty()) return agg;
    const double n = static_cast<double>(agg.runs);
    MetricMap sum;
    for (const MetricMap& result : runs)
        for (const auto& [name, value] : result) sum[name] += value;
    for (const auto& [name, total] : sum) agg.mean[name] = total / n;
    // Second pass about the mean, in run order: sum_sq/n - mean^2 cancels
    // catastrophically when the spread is small against the mean.
    MetricMap squared_deviation;
    for (const MetricMap& result : runs) {
        for (const auto& [name, mean] : agg.mean) {
            const auto it = result.find(name);
            const double d = (it == result.end() ? 0.0 : it->second) - mean;
            squared_deviation[name] += d * d;
        }
    }
    for (const auto& [name, total] : squared_deviation)
        agg.stddev[name] = std::sqrt(total / n);
    return agg;
}

unsigned default_jobs() {
    const char* env = std::getenv("PLATOON_JOBS");
    if (env == nullptr) return sim::ThreadPool::hardware_jobs();
    const char* const end = env + std::strlen(env);
    unsigned parsed = 0;
    const auto [stop, error] = std::from_chars(env, end, parsed);
    if (error == std::errc{} && stop == end && parsed > 0) return parsed;
    PLATOON_LOG_WARN(
        "PLATOON_JOBS=\"%s\" is not a positive whole number; using hardware "
        "concurrency",
        env);
    return sim::ThreadPool::hardware_jobs();
}

Aggregate run_seeds(RunSpec spec, std::size_t seeds, unsigned jobs) {
    const std::uint64_t base_seed = spec.scenario.seed;
    std::vector<std::function<MetricMap()>> cells;
    cells.reserve(seeds);
    for (std::size_t k = 0; k < seeds; ++k) {
        RunSpec seed_spec = spec;
        seed_spec.scenario.seed = base_seed + k;
        cells.emplace_back(
            [seed_spec = std::move(seed_spec)] { return run_once(seed_spec); });
    }
    // run_grid_protected returns per-seed outcomes in seed order; the fold
    // below is the same accumulation at any job count, hence bit-identical
    // output. A replication that throws becomes a RunFailure record instead
    // of aborting the sweep (and the other seeds' results with it).
    const std::vector<CellOutcome<MetricMap>> outcomes =
        run_grid_protected(std::move(cells), jobs);
    std::vector<MetricMap> succeeded;
    succeeded.reserve(outcomes.size());
    std::vector<RunFailure> failures;
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
        if (outcomes[k].value) {
            succeeded.push_back(*outcomes[k].value);
        } else {
            failures.push_back(RunFailure{k, base_seed + k, outcomes[k].error});
        }
    }
    Aggregate agg = aggregate_runs(succeeded);
    agg.failures = std::move(failures);
    return agg;
}

}  // namespace platoon::core
