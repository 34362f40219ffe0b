// The determinism contract of the parallel experiment runner: run_seeds /
// run_eval_grid produce bit-identical aggregates at any job count, because
// every seed builds a fully independent Scenario and results are folded in
// seed order on the calling thread. Also pins the seeds=0 and grid-ordering
// edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "core/experiment.hpp"
#include "eval/harness.hpp"

namespace {

namespace pc = platoon::core;
namespace pe = platoon::eval;

pc::RunSpec small_spec() {
    pc::RunSpec spec;
    spec.scenario.seed = 42;
    spec.scenario.platoon_size = 4;
    spec.duration_s = 10.0;
    return spec;
}

void expect_bitwise_equal(const pc::MetricMap& a, const pc::MetricMap& b) {
    ASSERT_EQ(a.size(), b.size());
    auto ib = b.begin();
    for (const auto& [name, value] : a) {
        EXPECT_EQ(name, ib->first);
        // Literally bit-exact, not operator==: a run too short to yield any
        // post-warmup gap samples reports min_gap_m = NaN, and two NaNs with
        // the same bit pattern ARE the same deterministic result.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
                  std::bit_cast<std::uint64_t>(ib->second))
            << "metric " << name << ": " << value << " vs " << ib->second;
        ++ib;
    }
}

TEST(ExperimentParallel, AggregateIndependentOfJobCount) {
    const auto serial = pc::run_seeds(small_spec(), 6, 1);
    const auto parallel = pc::run_seeds(small_spec(), 6, 8);
    ASSERT_EQ(serial.runs, 6u);
    ASSERT_EQ(parallel.runs, 6u);
    expect_bitwise_equal(serial.mean, parallel.mean);
    expect_bitwise_equal(serial.stddev, parallel.stddev);
}

TEST(ExperimentParallel, SparseMetricKeysFoldIdentically) {
    // Keys that only exist in some runs ("attack.*"-style) must still fold
    // identically: inject one key on even seeds only and another whose
    // value depends on the seed.
    auto spec = small_spec();
    spec.collect = [](pc::Scenario& scenario, pc::MetricMap& out) {
        const auto seed = scenario.seed();
        if (seed % 2 == 0) out["attack.even_seed_only"] = 1.0;
        out["attack.seed_value"] = static_cast<double>(seed) * 0.125;
    };
    const auto serial = pc::run_seeds(spec, 5, 1);
    const auto parallel = pc::run_seeds(spec, 5, 8);
    ASSERT_TRUE(serial.mean.count("attack.even_seed_only"));
    ASSERT_TRUE(serial.mean.count("attack.seed_value"));
    // 3 of 5 seeds (42, 44, 46) carry the sparse key; the mean still
    // divides by all 5 runs.
    EXPECT_DOUBLE_EQ(serial.mean.at("attack.even_seed_only"), 3.0 / 5.0);
    expect_bitwise_equal(serial.mean, parallel.mean);
    expect_bitwise_equal(serial.stddev, parallel.stddev);
}

TEST(ExperimentParallel, StddevSurvivesALargeCommonOffset) {
    // sum_sq/n - mean^2 cancels to 0 here; the two-pass fold keeps the
    // spread: population stddev of {0.1, 0.2, 0.3} is sqrt(0.02/3).
    std::vector<pc::MetricMap> runs(3);
    runs[0] = {{"x", 1e8 + 0.1}};
    runs[1] = {{"x", 1e8 + 0.2}};
    runs[2] = {{"x", 1e8 + 0.3}};
    const pc::Aggregate agg = pc::aggregate_runs(runs);
    EXPECT_NEAR(agg.stddev.at("x"), std::sqrt(0.02 / 3.0), 1e-6);
}

TEST(ExperimentParallel, StddevCountsAMissingKeyAsZero) {
    // A key absent from a run contributes 0 to it, as it does to the mean.
    std::vector<pc::MetricMap> runs(2);
    runs[0] = {{"sparse", 2.0}};
    runs[1] = {};
    const pc::Aggregate agg = pc::aggregate_runs(runs);
    EXPECT_DOUBLE_EQ(agg.mean.at("sparse"), 1.0);
    EXPECT_DOUBLE_EQ(agg.stddev.at("sparse"), 1.0);
}

TEST(ExperimentParallel, ZeroSeedsYieldsEmptyAggregateNotNaNs) {
    const auto agg = pc::run_seeds(small_spec(), 0, 4);
    EXPECT_EQ(agg.runs, 0u);
    EXPECT_TRUE(agg.mean.empty());
    EXPECT_TRUE(agg.stddev.empty());
    for (const auto& [name, value] : agg.mean) {
        EXPECT_FALSE(std::isnan(value)) << name;
    }
}

TEST(ExperimentParallel, RunSeedsParallelMatchesSerialRunSeeds) {
    const auto serial = pc::run_seeds(small_spec(), 4, 1);
    const auto parallel = pc::run_seeds(small_spec(), 4, 0);
    expect_bitwise_equal(serial.mean, parallel.mean);
    expect_bitwise_equal(serial.stddev, parallel.stddev);
}

TEST(ExperimentParallel, FaultedRunsIndependentOfJobCount) {
    // All four benign fault classes active at once: the fault schedule and
    // every Gilbert-Elliott draw derive from named streams off the scenario
    // seed, so the faulted metrics AND the fault/net counters must fold
    // bit-identically at any job count.
    auto spec = small_spec();
    spec.duration_s = 12.0;
    platoon::fault::BurstLossParams burst;
    burst.start_s = 1.0;
    burst.end_s = 11.0;
    burst.mean_good_s = 0.5;
    burst.mean_bad_s = 0.4;
    burst.loss_bad = 0.95;
    spec.scenario.faults.burst_loss.push_back(burst);
    spec.scenario.faults.crashes.push_back({2, 2.0, 3.0});
    spec.scenario.faults.sensor_dropouts.push_back({1, 3.0, 2.0});
    spec.scenario.faults.clock_drifts.push_back({3, 1.0, 0.2, 0.01});
    spec.collect = [](pc::Scenario& scenario, pc::MetricMap& out) {
        const auto* injector = scenario.faults();
        ASSERT_NE(injector, nullptr);
        out["fault.burst_drops"] =
            static_cast<double>(injector->stats().burst_drops);
        out["fault.crashes"] = static_cast<double>(injector->stats().crashes);
        out["fault.recoveries"] =
            static_cast<double>(injector->stats().recoveries);
        out["fault.sensor_dropouts"] =
            static_cast<double>(injector->stats().sensor_dropouts);
        out["fault.clock_skews"] =
            static_cast<double>(injector->stats().clock_skews);
        out["net.dropped_fault"] =
            static_cast<double>(scenario.network().stats().dropped_fault);
    };
    const auto serial = pc::run_seeds(spec, 4, 1);
    const auto parallel = pc::run_seeds(spec, 4, 4);
    ASSERT_EQ(serial.runs, 4u);
    ASSERT_EQ(parallel.runs, 4u);
    expect_bitwise_equal(serial.mean, parallel.mean);
    expect_bitwise_equal(serial.stddev, parallel.stddev);
    // The faults actually fired (otherwise this test proves nothing).
    EXPECT_GT(serial.mean.at("fault.burst_drops"), 0.0);
    EXPECT_EQ(serial.mean.at("fault.crashes"), 1.0);
    EXPECT_EQ(serial.mean.at("fault.recoveries"), 1.0);
    EXPECT_EQ(serial.mean.at("fault.sensor_dropouts"), 1.0);
    EXPECT_EQ(serial.mean.at("fault.clock_skews"), 1.0);
    EXPECT_EQ(serial.mean.at("fault.burst_drops"),
              serial.mean.at("net.dropped_fault"));
}

TEST(ExperimentParallel, ThrowingReplicationIsIsolatedAndReported) {
    // One hostile seed must not abort the sweep: the other replications
    // still aggregate and the failure is recorded (index, seed, message) --
    // identically at any job count.
    auto spec = small_spec();
    spec.setup = [](pc::Scenario& scenario) {
        if (scenario.seed() == 43) throw std::runtime_error("boom");
    };
    const auto serial = pc::run_seeds(spec, 3, 1);
    EXPECT_EQ(serial.runs, 2u);
    ASSERT_EQ(serial.failures.size(), 1u);
    EXPECT_EQ(serial.failures[0].index, 1u);
    EXPECT_EQ(serial.failures[0].seed, 43u);
    EXPECT_EQ(serial.failures[0].error, "boom");

    const auto parallel = pc::run_seeds(spec, 3, 4);
    EXPECT_EQ(parallel.runs, 2u);
    ASSERT_EQ(parallel.failures.size(), 1u);
    EXPECT_EQ(parallel.failures[0].index, 1u);
    EXPECT_EQ(parallel.failures[0].seed, 43u);
    EXPECT_EQ(parallel.failures[0].error, "boom");
    expect_bitwise_equal(serial.mean, parallel.mean);
    expect_bitwise_equal(serial.stddev, parallel.stddev);
}

TEST(ExperimentParallel, RunEvalIndependentOfJobCount) {
    // A full attacked evaluation (replay attacker radio, attack.* counters)
    // through the same per-seed fan-out the bench tables use.
    auto config = pe::eval_config();
    config.platoon_size = 4;
    const auto serial =
        pe::run_eval(config, pe::AttackKind::kReplay, true, 4, 1);
    const auto parallel =
        pe::run_eval(config, pe::AttackKind::kReplay, true, 4, 8);
    expect_bitwise_equal(serial, parallel);
}

TEST(ExperimentParallel, RunGridPreservesCellOrder) {
    std::vector<std::function<int()>> cells;
    for (int i = 0; i < 40; ++i) {
        cells.emplace_back([i] {
            if (i % 7 == 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
            return i * 3;
        });
    }
    const auto results = pc::run_grid(std::move(cells), 8);
    ASSERT_EQ(results.size(), 40u);
    for (int i = 0; i < 40; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 3);
    }
}

TEST(ExperimentParallel, RunGridStartsNoMoreWorkersThanCells) {
    const std::filesystem::path tasks("/proc/self/task");
    if (!std::filesystem::is_directory(tasks)) {
        GTEST_SKIP() << "no " << tasks << " to count threads in";
    }
    const std::function<std::ptrdiff_t()> count_threads = [tasks] {
        return std::distance(std::filesystem::directory_iterator(tasks),
                             std::filesystem::directory_iterator{});
    };
    // Relative to the threads alive before the grid: a sanitizer runtime
    // may run one of its own.
    const std::ptrdiff_t before = count_threads();
    std::vector<std::function<std::ptrdiff_t()>> cells(2, count_threads);
    for (const std::ptrdiff_t threads : pc::run_grid(std::move(cells), 16)) {
        EXPECT_LE(threads, before + 2);  // one worker per cell
    }
}

TEST(ExperimentParallel, EvalGridIndependentOfJobCount) {
    // The bench-facing grid API: two cells (clean + attacked replay),
    // multi-seed, folded means must match serial bit-for-bit, including
    // the sparse attack.* keys present only in attacked cells.
    auto config = pe::eval_config();
    config.platoon_size = 4;
    const std::vector<pe::EvalCell> cells{
        {config, pe::AttackKind::kReplay, false, 3},
        {config, pe::AttackKind::kReplay, true, 3},
    };
    const auto serial = pe::run_eval_grid(cells, 1);
    const auto parallel = pe::run_eval_grid(cells, 8);
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(parallel.size(), 2u);
    expect_bitwise_equal(serial[0], parallel[0]);
    expect_bitwise_equal(serial[1], parallel[1]);
    // Sanity: the attacked cell carries attack.* keys, the clean one none.
    EXPECT_EQ(serial[0].count("attack.frames_replayed"), 0u);
    EXPECT_GT(pe::metric(serial[1], "attack.frames_replayed"), 0.0);
}

TEST(ExperimentParallel, DefaultJobsHonorsEnvironment) {
    const unsigned hardware = pc::default_jobs();
    EXPECT_GE(hardware, 1u);
    ASSERT_EQ(setenv("PLATOON_JOBS", "3", 1), 0);
    EXPECT_EQ(pc::default_jobs(), 3u);
    // Only a whole positive decimal that fits `unsigned` counts: trailing
    // junk, a sign and an overflowing value all fall back.
    for (const char* bad : {"not-a-number", "3x", "-2", "99999999999"}) {
        ASSERT_EQ(setenv("PLATOON_JOBS", bad, 1), 0);
        EXPECT_EQ(pc::default_jobs(),
                  platoon::sim::ThreadPool::hardware_jobs())
            << bad;
    }
    ASSERT_EQ(unsetenv("PLATOON_JOBS"), 0);
    EXPECT_EQ(pc::default_jobs(), platoon::sim::ThreadPool::hardware_jobs());
}

}  // namespace
