// Experiment harness: runs scenarios across seeds and aggregates metric
// maps. Attacks/defenses compose through a setup callback so that this
// module stays independent of the attack library (benches link both).
//
// Replications are embarrassingly parallel -- every seed builds its own
// Scenario (scheduler, network, RNG streams) with no shared mutable state --
// so `run_seeds` and `run_grid` can fan work out over a sim::ThreadPool.
// The determinism contract: results are always collected and aggregated in
// seed/cell order on the calling thread, so the output is bit-identical for
// any job count, including the serial jobs=1 path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/thread_pool.hpp"

namespace platoon::core {

using MetricMap = std::map<std::string, double>;

struct RunSpec {
    ScenarioConfig scenario;
    sim::SimTime duration_s = 100.0;
    /// Called after the scenario is built, before it runs (attach attacks,
    /// tweak vehicles, add joiners, ...).
    std::function<void(Scenario&)> setup;
    /// Called after the run; merge extra metrics into the result
    /// (attack-specific outcomes such as "bytes leaked").
    std::function<void(Scenario&, MetricMap&)> collect;
};

/// Runs one scenario to completion and returns its metrics.
[[nodiscard]] MetricMap run_once(const RunSpec& spec);

/// One replication that threw instead of producing metrics. Failures are
/// first-class results: a sweep over hostile configurations must report
/// "seed 43 exploded" next to the seeds that survived, not abort the batch.
struct RunFailure {
    std::size_t index = 0;     ///< Replication index (0-based).
    std::uint64_t seed = 0;    ///< The seed that failed.
    std::string error;         ///< exception .what(), or "unknown exception".
};

struct Aggregate {
    MetricMap mean;
    MetricMap stddev;
    std::size_t runs = 0;  ///< Successful replications (the divisor).
    std::vector<RunFailure> failures;
};

/// Folds per-run metric maps (in run order) into mean/stddev. Keys missing
/// from some runs are treated as contributing 0 to those runs, i.e. the
/// mean always divides by the total run count. seeds=0 -> empty aggregate.
[[nodiscard]] Aggregate aggregate_runs(const std::vector<MetricMap>& runs);

/// Number of worker threads to use when a caller passes jobs=0: the
/// PLATOON_JOBS environment variable if it is a whole positive decimal that
/// fits `unsigned`, else hardware concurrency (any other value is reported
/// on stderr). PLATOON_JOBS=1 reproduces the serial path.
[[nodiscard]] unsigned default_jobs();

/// Runs `seeds` independent replications (seed = base_seed + k) on `jobs`
/// worker threads and aggregates them in seed order, so mean/stddev are
/// bit-identical regardless of `jobs` (jobs=0 -> default_jobs()). jobs==1
/// runs inline on the calling thread (exactly the historical serial
/// behavior).
[[nodiscard]] Aggregate run_seeds(RunSpec spec, std::size_t seeds,
                                  unsigned jobs = 1);

/// Fans a grid of independent cells out over `jobs` workers and returns the
/// results *in cell order* (jobs=0 -> default_jobs(); jobs<=1 -> inline, in
/// order). The pool never holds more workers than there are cells.
/// Cells must be self-contained: each builds, runs, and summarizes
/// its own scenario(s). The bench binaries use this to run whole
/// (config, attack, defense, seed) grids concurrently while printing
/// byte-identical tables at any job count.
template <typename T>
[[nodiscard]] std::vector<T> run_grid(std::vector<std::function<T()>> cells,
                                      unsigned jobs = 0) {
    if (jobs == 0) jobs = default_jobs();
    std::vector<T> results;
    results.reserve(cells.size());
    if (jobs <= 1 || cells.size() <= 1) {
        for (auto& cell : cells) results.push_back(cell());
        return results;
    }
    sim::ThreadPool pool(
        static_cast<unsigned>(std::min<std::size_t>(jobs, cells.size())));
    std::vector<std::future<T>> futures;
    futures.reserve(cells.size());
    for (auto& cell : cells) futures.push_back(pool.submit(std::move(cell)));
    for (auto& future : futures) results.push_back(future.get());
    return results;
}

/// Result of one protected cell: exactly one of `value` / `error` is set.
template <typename T>
struct CellOutcome {
    std::optional<T> value;
    std::string error;
};

/// run_grid with per-cell exception isolation: a throwing cell yields a
/// CellOutcome carrying the exception message instead of tearing down the
/// whole grid (futures rethrow on .get(), which would otherwise abandon
/// every other cell's result). Outcome order matches cell order at any job
/// count, preserving the determinism contract.
template <typename T>
[[nodiscard]] std::vector<CellOutcome<T>> run_grid_protected(
    std::vector<std::function<T()>> cells, unsigned jobs = 0) {
    std::vector<std::function<CellOutcome<T>()>> wrapped;
    wrapped.reserve(cells.size());
    for (auto& cell : cells) {
        wrapped.emplace_back([cell = std::move(cell)]() -> CellOutcome<T> {
            try {
                return CellOutcome<T>{cell(), {}};
            } catch (const std::exception& e) {
                return CellOutcome<T>{std::nullopt, e.what()};
            } catch (...) {
                return CellOutcome<T>{std::nullopt, "unknown exception"};
            }
        });
    }
    return run_grid(std::move(wrapped), jobs);
}

}  // namespace platoon::core
