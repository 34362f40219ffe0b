// Pins the spatial-index delivery path against an all-pairs reference: the
// same Network with spatial_slack_margin_m = +inf, whose query window holds
// every registered node, so each one gets the exact per-receiver range
// check an O(all-pairs) scan makes.
//
// The index is allowed to change HOW candidate receivers are found, never
// WHAT is observable: reception sets, per-frame SINR bits, obs counters and
// end-to-end scenario metrics must match exactly. The one exception is how
// range drops split between the window and the bulk-counted far tail, which
// is the index's own work; their sum must match. The property test sweeps
// node densities and seeds with mobile nodes, jammer pseudo-nodes (static
// and mobile) and a fast adjacent-lane attacker in the mix; the VLC tests
// cover the optical-chain neighbor query that rides the same sorted
// snapshot.
//
// The far-field interference model is pinned the same way: with
// interference_range_m = +inf every interference term is exact, and that
// run must reproduce the exact model's reception log bit for bit; at the
// default range a highway corridor's PDR must stay within 0.002 of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "scen/schema.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace pn = platoon::net;
namespace pc = platoon::core;
namespace obs = platoon::obs;
using platoon::sim::NodeId;
using platoon::sim::Scheduler;

namespace {

/// One decoded frame, with the SINR captured bit-for-bit: "close enough"
/// floats would hide a divergent fading draw.
struct RxEvent {
    std::uint32_t receiver = 0;
    std::uint32_t sender = 0;
    std::uint64_t seq = 0;
    std::uint64_t sinr_bits = 0;
    std::uint64_t time_bits = 0;

    friend bool operator==(const RxEvent&, const RxEvent&) = default;
};

struct RunLog {
    std::vector<RxEvent> receptions;
    std::map<std::string, std::uint64_t> counters;
    pn::NetworkStats stats;
};

/// The reference: an infinite margin widens every index window to the whole
/// registry.
constexpr double kAllNodes = std::numeric_limits<double>::infinity();

/// Counters with the range-drop split folded into its sum: a receiver
/// outside the window is counted in `.far` without being examined, one
/// inside it but out of range in `.window`, and the reference's window holds
/// every node.
std::map<std::string, std::uint64_t> fold_range_split(
    std::map<std::string, std::uint64_t> counters) {
    const std::uint64_t sum = counters.at("net.dropped.range.window") +
                              counters.at("net.dropped.range.far");
    counters.erase("net.dropped.range.window");
    counters.erase("net.dropped.range.far");
    counters["net.dropped.range"] = sum;
    return counters;
}

pn::Frame make_frame(std::uint32_t sender, std::uint64_t seq) {
    pn::Frame f;
    f.envelope.sender = sender;
    f.envelope.seq = seq;
    f.envelope.payload = pn::Beacon{}.encode();
    return f;
}

/// Runs one randomized traffic pattern: `nodes` stations spread over the
/// corridor (every third one mobile), a continuous jammer mid-corridor, a
/// duty-cycled mobile jammer sweeping through, and a fast mobile attacker
/// node that also transmits. Deterministic given (seed, nodes, reference).
RunLog run_pattern(std::uint64_t seed, std::size_t nodes, bool reference) {
    Scheduler scheduler;
    pn::Network::Params params;
    if (reference) params.spatial_slack_margin_m = kAllNodes;
    pn::Network network(scheduler, params, seed);

    RunLog log;
    obs::set_enabled(true);
    obs::reset_counters();

    // Corridor length scales with density so every tier keeps viable links
    // (a handful of nodes over kilometres would never decode anything).
    const double span = 30.0 * static_cast<double>(nodes);
    platoon::sim::RandomStream layout(seed, "test.spatial.layout");
    for (std::size_t i = 0; i < nodes; ++i) {
        const auto id = static_cast<std::uint32_t>(1 + i);
        const double start = layout.uniform(0.0, span);
        const double speed =
            (i % 3 == 0) ? layout.uniform(20.0, 35.0) : 0.0;
        network.register_node(
            NodeId{id},
            [&scheduler, start, speed] {
                return start + speed * scheduler.now();
            },
            [&log, id](const pn::Frame& frame, const pn::RxInfo& info) {
                log.receptions.push_back(
                    {id, frame.envelope.sender, frame.envelope.seq,
                     std::bit_cast<std::uint64_t>(info.sinr_db),
                     std::bit_cast<std::uint64_t>(info.rx_time)});
            });
    }

    // Jammer pseudo-nodes: one parked mid-corridor, one mobile sweeping the
    // corridor at 40 m/s with a 50% duty cycle. Deliberately weak (-20 dBm):
    // a jammer above the carrier-sense threshold would simply freeze CSMA
    // corridor-wide, whereas what this test needs from jammers is their
    // per-reception fading draws on the shared RNG -- the thing a delivery
    // path that visits candidates in a different order would corrupt.
    network.add_jammer({.position_m = span / 2.0, .power_dbm = -20.0});
    pn::JammerConfig mobile_jam;
    mobile_jam.power_dbm = -20.0;
    mobile_jam.duty_cycle = 0.5;
    mobile_jam.mobile = true;
    mobile_jam.position_fn = [&scheduler] { return 40.0 * scheduler.now(); };
    network.add_jammer(mobile_jam);

    // A fast mobile attacker that transmits its own traffic from the far
    // end -- exercises candidates entering/leaving the index window.
    const std::uint32_t attacker = 9000;
    network.register_node(
        NodeId{attacker},
        [&scheduler, span] { return span + 100.0 - 50.0 * scheduler.now(); },
        [&log, attacker](const pn::Frame& frame, const pn::RxInfo& info) {
            log.receptions.push_back(
                {attacker, frame.envelope.sender, frame.envelope.seq,
                 std::bit_cast<std::uint64_t>(info.sinr_db),
                 std::bit_cast<std::uint64_t>(info.rx_time)});
        });

    // Staggered broadcasts: every node beacons at 10 Hz with a per-node
    // phase, the attacker at 20 Hz.
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < nodes; ++i) {
        const auto id = static_cast<std::uint32_t>(1 + i);
        const double phase = layout.uniform(0.0, 0.1);
        for (int k = 0; k < 20; ++k)
            scheduler.schedule_at(phase + 0.1 * k,
                                  [&network, id, s = ++seq] {
                                      network.broadcast(NodeId{id},
                                                        make_frame(id, s));
                                  });
    }
    for (int k = 0; k < 40; ++k)
        scheduler.schedule_at(0.013 + 0.05 * k,
                              [&network, attacker, s = ++seq] {
                                  network.broadcast(
                                      NodeId{attacker},
                                      make_frame(attacker, s));
                              });

    scheduler.run_until(2.0);
    log.counters = obs::counter_snapshot();
    log.stats = network.stats();
    return log;
}

TEST(SpatialDelivery, PropertyBruteForceAndIndexAreByteIdentical) {
    // Density sweep x seed sweep. Any mismatch in the reception multiset,
    // its SINR bits, or a single counter means the index changed an
    // observable and would silently drift every golden in the repo.
    for (const std::size_t nodes : {4, 24, 64}) {
        for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
            const RunLog reference = run_pattern(seed, nodes, true);
            const RunLog index = run_pattern(seed, nodes, false);

            ASSERT_FALSE(reference.receptions.empty())
                << "degenerate pattern at nodes=" << nodes
                << " seed=" << seed;
            ASSERT_EQ(reference.receptions.size(), index.receptions.size())
                << "nodes=" << nodes << " seed=" << seed;
            for (std::size_t i = 0; i < reference.receptions.size(); ++i)
                ASSERT_EQ(reference.receptions[i], index.receptions[i])
                    << "reception " << i << " diverged at nodes=" << nodes
                    << " seed=" << seed;
            EXPECT_EQ(reference.counters.at("net.dropped.range.far"), 0u);
            EXPECT_EQ(fold_range_split(reference.counters),
                      fold_range_split(index.counters))
                << "obs counters diverged at nodes=" << nodes
                << " seed=" << seed;
            EXPECT_EQ(reference.stats.sent, index.stats.sent);
            EXPECT_EQ(reference.stats.delivered, index.stats.delivered);
        }
    }
}

// --- VLC ------------------------------------------------------------------

struct VlcFixture : ::testing::Test {
    Scheduler scheduler;

    std::unique_ptr<pn::Network> build(bool reference) {
        pn::Network::Params params;
        if (reference) params.spatial_slack_margin_m = kAllNodes;
        return std::make_unique<pn::Network>(scheduler, params, 5);
    }

    static void add_vlc_node(pn::Network& network, std::uint32_t id,
                             double position) {
        pn::Network::NodeTraits traits;
        traits.vlc = true;
        network.register_node(
            NodeId{id}, [position] { return position; },
            [](const pn::Frame&, const pn::RxInfo&) {}, traits);
    }
};

TEST_F(VlcFixture, FarPlatoonsNeverAppearAsVlcNeighbors) {
    // Regression for the spatial-index rewrite of vlc_targets: a second
    // platoon parked kilometres behind must not be returned as the rear
    // optical neighbor of the near platoon's tail, no matter that it holds
    // the nearest *registered* nodes in that direction.
    for (const bool reference : {true, false}) {
        auto network = build(reference);
        for (std::uint32_t i = 0; i < 4; ++i)
            add_vlc_node(*network, 1 + i, 100.0 - 10.0 * i);  // 100..70 m
        for (std::uint32_t i = 0; i < 4; ++i)
            add_vlc_node(*network, 100 + i, -5000.0 - 10.0 * i);

        // Interior node: both neighbors are in-platoon.
        auto [ahead, behind] = network->vlc_targets(NodeId{2});
        EXPECT_EQ(ahead, NodeId{1}) << "reference=" << reference;
        EXPECT_EQ(behind, NodeId{3}) << "reference=" << reference;

        // Tail of the near platoon: nothing within optical range behind --
        // the far platoon is 5 km away and must not leak through.
        auto [tail_ahead, tail_behind] = network->vlc_targets(NodeId{4});
        EXPECT_EQ(tail_ahead, NodeId{3}) << "reference=" << reference;
        EXPECT_FALSE(tail_behind.valid())
            << "far platoon leaked into VLC reach, reference=" << reference;

        // Leader of the far platoon: its forward gap to the near platoon is
        // 5 km of empty road.
        auto [far_ahead, far_behind] = network->vlc_targets(NodeId{100});
        EXPECT_FALSE(far_ahead.valid()) << "reference=" << reference;
        EXPECT_EQ(far_behind, NodeId{101}) << "reference=" << reference;
    }
}

TEST_F(VlcFixture, VlcTargetsMatchBruteForceOnRandomScatter) {
    platoon::sim::RandomStream layout(99, "test.spatial.vlc");
    std::vector<double> xs;
    for (int i = 0; i < 40; ++i) xs.push_back(layout.uniform(0.0, 600.0));

    auto reference = build(true);
    auto index = build(false);
    for (std::uint32_t i = 0; i < xs.size(); ++i) {
        add_vlc_node(*reference, 1 + i, xs[i]);
        add_vlc_node(*index, 1 + i, xs[i]);
    }
    for (std::uint32_t i = 0; i < xs.size(); ++i) {
        const auto expect = reference->vlc_targets(NodeId{1 + i});
        const auto got = index->vlc_targets(NodeId{1 + i});
        EXPECT_EQ(expect.first, got.first) << "node " << (1 + i);
        EXPECT_EQ(expect.second, got.second) << "node " << (1 + i);
    }
}

// --- far-field interference -------------------------------------------------

constexpr double kExactInterference = std::numeric_limits<double>::infinity();

/// A seeded multi-platoon highway: 12 platoons of 8 stations 25 m apart,
/// leaders 2 km apart over 22 km, all moving. Every station beacons at
/// 10 Hz for 2 s, and slot i of every platoon keys up within 0.1 ms of
/// slot i everywhere else, so each frame overlaps transmitters from 2 km to
/// 22 km away (too far for carrier sense to defer to).
RunLog run_highway(double interference_range_m) {
    Scheduler scheduler;
    pn::Network::Params params;
    params.channel.interference_range_m = interference_range_m;
    pn::Network network(scheduler, params, 2027);

    RunLog log;
    obs::set_enabled(true);
    obs::reset_counters();

    platoon::sim::RandomStream layout(2027, "test.farfield.layout");
    constexpr std::size_t kPlatoons = 12;
    constexpr std::size_t kSize = 8;
    std::uint64_t seq = 0;
    for (std::size_t p = 0; p < kPlatoons; ++p) {
        const double speed = (p % 3 == 0) ? 30.0 : 25.0;
        for (std::size_t i = 0; i < kSize; ++i) {
            const auto id = static_cast<std::uint32_t>(1 + p * kSize + i);
            const double start = 2000.0 * static_cast<double>(p) -
                                 25.0 * static_cast<double>(i) +
                                 layout.uniform(-2.0, 2.0);
            network.register_node(
                NodeId{id},
                [&scheduler, start, speed] {
                    return start + speed * scheduler.now();
                },
                [&log, id](const pn::Frame& frame, const pn::RxInfo& info) {
                    log.receptions.push_back(
                        {id, frame.envelope.sender, frame.envelope.seq,
                         std::bit_cast<std::uint64_t>(info.sinr_db),
                         std::bit_cast<std::uint64_t>(info.rx_time)});
                });
            const double phase =
                0.01 * static_cast<double>(i) + layout.uniform(0.0, 1e-4);
            for (int k = 0; k < 20; ++k)
                scheduler.schedule_at(phase + 0.1 * k,
                                      [&network, id, s = ++seq] {
                                          network.broadcast(NodeId{id},
                                                            make_frame(id, s));
                                      });
        }
    }

    scheduler.run_until(2.0);
    log.counters = obs::counter_snapshot();
    log.stats = network.stats();
    return log;
}

/// FNV-1a over each reception's receiver, sender, seq and SINR bits.
std::uint64_t reception_hash(const std::vector<RxEvent>& receptions) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (word >> (8 * byte)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (const RxEvent& e : receptions) {
        mix(e.receiver);
        mix(e.sender);
        mix(e.seq);
        mix(e.sinr_bits);
    }
    return h;
}

TEST(FarFieldInterference, InfiniteRangeReproducesTheExactModel) {
    // The golden is the reception log of the same layout under the model
    // before the far field existed, where every term paid its fading draw.
    const RunLog exact = run_highway(kExactInterference);
    EXPECT_EQ(exact.receptions.size(), 13412u);
    EXPECT_EQ(reception_hash(exact.receptions), 0xfef3e5569176ad14ull)
        << std::hex << reception_hash(exact.receptions);
    EXPECT_GT(exact.counters.at("net.interference.exact"), 0u);
    EXPECT_EQ(exact.counters.at("net.interference.mean"), 0u);
}

TEST(FarFieldInterference, TheRangeDecidesHowATermIsComputedNotWhich) {
    // Carrier sense and every PER draw run as before, so both runs send the
    // same frames at the same times and evaluate the same interference
    // terms; the default range computes most of them as means.
    const RunLog exact = run_highway(kExactInterference);
    const RunLog mixed = run_highway(pn::ChannelParams{}.interference_range_m);
    const std::uint64_t near = mixed.counters.at("net.interference.exact");
    const std::uint64_t far = mixed.counters.at("net.interference.mean");
    EXPECT_GT(near, 0u);
    EXPECT_GT(far, near);
    EXPECT_EQ(near + far, exact.counters.at("net.interference.exact"));
    EXPECT_EQ(mixed.stats.sent, exact.stats.sent);
}

TEST(FarFieldInterference, SixteenPlatoonCorridorPdrStaysWithinTolerance) {
    // bench_scale's 16-platoon tier (scale_corridor truncated as it does),
    // at a 5 s horizon: the mean far field may move its PDR by 0.002 at
    // most against the all-exact model.
    std::string error;
    const auto compiled = platoon::scen::compile_file(
        std::string(PLATOON_SCENARIO_DIR) + "/scale_corridor.json", &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    ASSERT_FALSE(compiled->cells.front().with_attack);
    pc::ScenarioConfig config = compiled->cells.front().config;
    ASSERT_GE(config.extra_platoons.size(), 15u);
    config.extra_platoons.resize(15);
    std::erase_if(config.corridor, [](const pc::CorridorEvent& event) {
        return event.platoon >= 16;
    });
    const auto pdr = [&config](double interference_range_m) {
        pc::ScenarioConfig run = config;
        run.network.channel.interference_range_m = interference_range_m;
        pc::Scenario scenario(run);
        scenario.run_until(5.0);
        return scenario.network().stats().pdr();
    };
    const double exact = pdr(kExactInterference);
    const double mixed = pdr(pn::ChannelParams{}.interference_range_m);
    EXPECT_LE(std::abs(mixed - exact), 0.002)
        << "exact " << exact << ", mean far field " << mixed;
}

// --- end-to-end scenario identity -----------------------------------------

pc::ScenarioConfig corridor_config() {
    pc::ScenarioConfig config;
    config.seed = 11;
    config.platoon_size = 6;
    config.extra_platoons = {{.size = 5, .start_offset_m = -400.0, .lane = 1},
                             {.size = 4,
                              .start_offset_m = -800.0,
                              .lane = 1,
                              .speed_delta_mps = 1.0}};
    config.corridor = {{pc::CorridorEvent::Kind::kCutIn, 4.0, 2, 1},
                       {pc::CorridorEvent::Kind::kMerge, 6.0, 1, 0}};
    return config;
}

TEST(SpatialDelivery, CorridorScenarioMetricsIdenticalUnderBruteForce) {
    // Full pipeline cross-check: a three-platoon corridor with maneuvers,
    // run with the default windows and with whole-registry windows (radio
    // and radar snapshots alike), must produce identical metric maps --
    // every mean and RMS in there folds thousands of per-frame SINR draws,
    // so this catches divergence anywhere in the stack.
    auto run = [](bool reference) {
        pc::ScenarioConfig config = corridor_config();
        if (reference) config.network.spatial_slack_margin_m = kAllNodes;
        pc::Scenario scenario(config);
        scenario.run_until(8.0);
        return scenario.summarize().as_map();
    };
    const auto reference = run(true);
    const auto indexed = run(false);
    ASSERT_EQ(reference.size(), indexed.size());
    for (const auto& [name, value] : reference) {
        const auto it = indexed.find(name);
        ASSERT_NE(it, indexed.end()) << name;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
                  std::bit_cast<std::uint64_t>(it->second))
            << name << " diverged from the whole-registry reference";
    }
}

}  // namespace
