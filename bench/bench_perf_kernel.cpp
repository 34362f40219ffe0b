// Engineering performance: simulator kernel throughput and crypto costs.
// Not a paper table -- this is what makes the table benches cheap enough to
// run hundreds of attack/defense scenarios on a laptop.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/eddsa.hpp"
#include "crypto/fading_key_agreement.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace platoon;

void BM_SchedulerThroughput(benchmark::State& state) {
    for (auto _ : state) {
        sim::Scheduler scheduler;
        int counter = 0;
        for (int i = 0; i < 10000; ++i) {
            scheduler.schedule_at(static_cast<double>(i % 100), [&counter] {
                ++counter;
            });
        }
        scheduler.run_until(200.0);
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerThroughput);

void BM_PeriodicEvents(benchmark::State& state) {
    for (auto _ : state) {
        sim::Scheduler scheduler;
        long counter = 0;
        for (int i = 0; i < 64; ++i) {
            scheduler.schedule_every(0.01 * (i + 1) / 64.0, 0.01,
                                     [&counter] { ++counter; });
        }
        scheduler.run_until(10.0);
        benchmark::DoNotOptimize(counter);
    }
}
BENCHMARK(BM_PeriodicEvents);

void BM_ScenarioSimRate(benchmark::State& state) {
    const auto size = static_cast<std::size_t>(state.range(0));
    double simulated = 0.0;
    for (auto _ : state) {
        core::ScenarioConfig config;
        config.seed = 1;
        config.platoon_size = size;
        core::Scenario scenario(config);
        scenario.run_until(20.0);
        simulated += 20.0;
        benchmark::DoNotOptimize(scenario.summarize().spacing_rms_m);
    }
    state.counters["sim_s_per_wall_s"] = benchmark::Counter(
        simulated, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScenarioSimRate)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioSignedSimRate(benchmark::State& state) {
    double simulated = 0.0;
    for (auto _ : state) {
        core::ScenarioConfig config;
        config.seed = 1;
        config.platoon_size = 6;
        config.security.auth_mode = crypto::AuthMode::kSignature;
        core::Scenario scenario(config);
        scenario.run_until(10.0);
        simulated += 10.0;
        benchmark::DoNotOptimize(scenario.summarize().spacing_rms_m);
    }
    state.counters["sim_s_per_wall_s"] = benchmark::Counter(
        simulated, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScenarioSignedSimRate)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_RunSeeds(benchmark::State& state) {
    const auto jobs = static_cast<unsigned>(state.range(0));
    core::RunSpec spec;
    spec.scenario.seed = 7;
    spec.scenario.platoon_size = 6;
    spec.duration_s = 20.0;
    const std::size_t seeds = 16;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::run_seeds(spec, seeds, jobs));
    }
    state.counters["sim_s_per_wall_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 20.0 * seeds,
        benchmark::Counter::kIsRate);
    state.SetLabel("jobs=" + std::to_string(jobs));
}
BENCHMARK(BM_RunSeeds)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

void BM_Sha256(benchmark::State& state) {
    const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0xA5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
    const crypto::Bytes key(32, 0x0B);
    const crypto::Bytes data(256, 0xA5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
    }
}
BENCHMARK(BM_HmacSha256);

void BM_ChaCha20(benchmark::State& state) {
    const crypto::Bytes key(32, 0x42);
    const crypto::Bytes nonce(12, 0x24);
    const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0xA5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::ChaCha20::crypt(key, nonce, data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(4096);

void BM_SchnorrSign(benchmark::State& state) {
    const auto kp = crypto::KeyPair::from_seed(crypto::Bytes(32, 1));
    const auto msg = crypto::to_bytes("beacon pos=120.5 speed=25.0 a=0.2");
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::sign(kp, msg));
    }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
    const auto kp = crypto::KeyPair::from_seed(crypto::Bytes(32, 1));
    const auto msg = crypto::to_bytes("beacon pos=120.5 speed=25.0 a=0.2");
    const auto sig = crypto::sign(kp, msg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::verify(kp.public_bytes, msg, sig));
    }
}
BENCHMARK(BM_SchnorrVerify);

void BM_SchnorrVerifyKnownSigner(benchmark::State& state) {
    const auto kp = crypto::KeyPair::from_seed(crypto::Bytes(32, 1));
    const auto msg = crypto::to_bytes("beacon pos=120.5 speed=25.0 a=0.2");
    const auto sig = crypto::sign(kp, msg);
    const auto key = crypto::VerifyingKey::from_bytes(kp.public_bytes);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::verify(*key, msg, sig));
    }
}
BENCHMARK(BM_SchnorrVerifyKnownSigner);

void BM_EcdhSharedKey(benchmark::State& state) {
    const auto a = crypto::KeyPair::from_seed(crypto::Bytes(32, 1));
    const auto b = crypto::KeyPair::from_seed(crypto::Bytes(32, 2));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crypto::dh_shared_key(a.secret, b.public_bytes));
    }
}
BENCHMARK(BM_EcdhSharedKey);

void BM_FadingKeyAgreement(benchmark::State& state) {
    sim::RandomStream chan(7, "bm.fka");
    std::vector<double> alice(512), bob(512);
    double g = 0.0;
    for (std::size_t i = 0; i < alice.size(); ++i) {
        g = 0.3 * g + chan.normal(0.0, 4.0);
        alice[i] = g + chan.normal(0.0, 0.3);
        bob[i] = g + chan.normal(0.0, 0.3);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::agree(alice, bob));
    }
}
BENCHMARK(BM_FadingKeyAgreement);

// Wall-clock speedup of the parallel experiment runner: the same 16-seed
// replication set at jobs=1 vs PLATOON_JOBS (default: hardware concurrency).
// The two aggregates are asserted bit-identical -- the speedup is free.
void report_parallel_speedup() {
    core::RunSpec spec;
    spec.scenario.seed = 7;
    spec.scenario.platoon_size = 6;
    spec.duration_s = 20.0;
    const std::size_t seeds = 16;
    const unsigned jobs = core::default_jobs();

    const auto timed = [&](unsigned j) {
        const auto start = std::chrono::steady_clock::now();
        const auto agg = core::run_seeds(spec, seeds, j);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        return std::pair<double, core::Aggregate>(elapsed.count(), agg);
    };
    const auto [serial_s, serial_agg] = timed(1);
    const auto [parallel_s, parallel_agg] = timed(jobs);
    const bool identical = serial_agg.mean == parallel_agg.mean &&
                           serial_agg.stddev == parallel_agg.stddev;
    std::printf(
        "run_seeds speedup: %zu seeds x 20 sim-s, jobs=1: %.2f s, "
        "jobs=%u: %.2f s -> %.2fx (aggregates bit-identical: %s)\n",
        seeds, serial_s, jobs, parallel_s, serial_s / parallel_s,
        identical ? "yes" : "NO -- DETERMINISM BUG");
}

}  // namespace

int main(int argc, char** argv) {
    platoon::bench::obs_init();
    report_parallel_speedup();
    // Exported before RunSpecifiedBenchmarks: google-benchmark's dynamic
    // iteration counts would make the counter section machine-dependent.
    platoon::bench::write_bench_json("bench_perf_kernel",
                                     "run_seeds 16x20s speedup probe", 7);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
