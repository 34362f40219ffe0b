// Message codecs, channel propagation and the network/MAC.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>
#include <vector>

#include "net/channel.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace pn = platoon::net;
namespace pc = platoon::crypto;
using platoon::sim::NodeId;
using platoon::sim::Scheduler;

namespace {

TEST(Message, BeaconRoundTrip) {
    pn::Beacon b;
    b.sender = 42;
    b.platoon_id = 7;
    b.platoon_index = 3;
    b.lane = 1;
    b.position_m = 1234.5;
    b.speed_mps = 25.25;
    b.accel_mps2 = -0.75;
    b.length_m = 12.0;
    const auto decoded = pn::Beacon::decode(pc::BytesView(b.encode()));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->sender, 42u);
    EXPECT_EQ(decoded->platoon_id, 7u);
    EXPECT_EQ(decoded->platoon_index, 3);
    EXPECT_EQ(decoded->lane, 1);
    EXPECT_DOUBLE_EQ(decoded->position_m, 1234.5);
    EXPECT_DOUBLE_EQ(decoded->speed_mps, 25.25);
    EXPECT_DOUBLE_EQ(decoded->accel_mps2, -0.75);
    EXPECT_DOUBLE_EQ(decoded->length_m, 12.0);
}

TEST(Message, ManeuverRoundTrip) {
    pn::ManeuverMsg m;
    m.type = pn::ManeuverType::kGapOpen;
    m.platoon_id = 3;
    m.sender = 100;
    m.subject = 104;
    m.param = 30.0;
    const auto decoded = pn::ManeuverMsg::decode(pc::BytesView(m.encode()));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, pn::ManeuverType::kGapOpen);
    EXPECT_EQ(decoded->subject, 104u);
    EXPECT_DOUBLE_EQ(decoded->param, 30.0);
}

TEST(Message, KeyMgmtRoundTrip) {
    pn::KeyMgmtMsg m;
    m.type = pn::KeyMgmtType::kCrlUpdate;
    m.sender = 1000;
    m.receiver = 101;
    m.blob = {1, 2, 3, 4, 5};
    const auto decoded = pn::KeyMgmtMsg::decode(pc::BytesView(m.encode()));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, pn::KeyMgmtType::kCrlUpdate);
    EXPECT_EQ(decoded->blob, (pc::Bytes{1, 2, 3, 4, 5}));
}

TEST(Message, DecodersRejectGarbageAndCrossTypes) {
    const pc::Bytes garbage = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3};
    EXPECT_FALSE(pn::Beacon::decode(garbage).has_value());
    EXPECT_FALSE(pn::ManeuverMsg::decode(garbage).has_value());
    EXPECT_FALSE(pn::KeyMgmtMsg::decode(garbage).has_value());

    pn::Beacon b;
    EXPECT_FALSE(pn::ManeuverMsg::decode(pc::BytesView(b.encode())).has_value());
    EXPECT_FALSE(pn::Beacon::decode(pc::BytesView{}).has_value());

    // Truncated beacon.
    auto bytes = b.encode();
    bytes.resize(bytes.size() - 4);
    EXPECT_FALSE(pn::Beacon::decode(pc::BytesView(bytes)).has_value());
}

// ---------------------------------------------------------------------------

TEST(Channel, PathLossMonotone) {
    pn::Channel channel({}, 1);
    EXPECT_LT(channel.path_loss_db(10.0), channel.path_loss_db(100.0));
    EXPECT_LT(channel.path_loss_db(100.0), channel.path_loss_db(500.0));
    // Below 1 m clamps.
    EXPECT_DOUBLE_EQ(channel.path_loss_db(0.1), channel.path_loss_db(1.0));
}

TEST(Channel, FadingIsReciprocal) {
    pn::Channel channel({}, 2);
    for (double t : {0.0, 0.5, 1.0, 2.5}) {
        const double ab = channel.fading_db(NodeId{1}, NodeId{2}, t);
        const double ba = channel.fading_db(NodeId{2}, NodeId{1}, t);
        EXPECT_DOUBLE_EQ(ab, ba);
    }
}

TEST(Channel, FadingTemporallyCorrelated) {
    pn::ChannelParams params;
    params.coherence_time_s = 0.05;
    pn::Channel channel(params, 3);
    // Sample two processes: tiny dt (correlated) vs huge dt (decorrelated).
    double corr_num = 0.0, corr_prev_sq = 0.0;
    double prev = channel.fading_db(NodeId{1}, NodeId{2}, 0.0);
    for (int i = 1; i <= 2000; ++i) {
        const double cur =
            channel.fading_db(NodeId{1}, NodeId{2}, i * 0.005);  // dt << Tc
        corr_num += prev * cur;
        corr_prev_sq += prev * prev;
        prev = cur;
    }
    const double lag_corr = corr_num / corr_prev_sq;
    EXPECT_GT(lag_corr, 0.7);  // exp(-0.005/0.05) ~ 0.90
}

TEST(Channel, DistinctPairsDistinctFading) {
    pn::Channel channel({}, 4);
    double diff = 0.0;
    for (int i = 0; i < 100; ++i) {
        const double t = i * 0.1;
        diff += std::abs(channel.fading_db(NodeId{1}, NodeId{2}, t) -
                         channel.fading_db(NodeId{1}, NodeId{3}, t));
    }
    EXPECT_GT(diff / 100.0, 1.0);  // uncorrelated 4 dB processes
}

TEST(Channel, FadingDependsOnlyOnLinkAndEpoch) {
    // A random set of (link, t) queries answered in generation order is the
    // reference. Shuffled, subsetted or interleaved with queries on other
    // links, every shared query must return the same bits: no value may
    // depend on which query reached the link first.
    struct Query {
        NodeId a, b;
        double t;
    };
    platoon::sim::RandomStream gen(21, "test.channel.queries");
    std::vector<Query> queries;
    for (int i = 0; i < 2000; ++i) {
        const auto a = static_cast<std::uint32_t>(gen.uniform_int(12));
        const auto b = static_cast<std::uint32_t>(1 + a + gen.uniform_int(11));
        queries.push_back({NodeId{a}, NodeId{b % 12}, gen.uniform(-30.0, 60.0)});
    }
    const auto answer = [](const Query& q, const pn::Channel& channel) {
        return channel.fading_db(q.a, q.b, q.t);
    };
    std::vector<double> reference;
    {
        pn::Channel channel({}, 8);
        for (const Query& q : queries) reference.push_back(answer(q, channel));
    }

    std::vector<std::size_t> order(queries.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[gen.uniform_int(i + 1)]);
    }
    pn::Channel shuffled({}, 8);
    for (const std::size_t i : order) {
        EXPECT_EQ(answer(queries[i], shuffled), reference[i]) << "query " << i;
    }

    pn::Channel subset({}, 8);
    for (std::size_t i = 0; i < queries.size(); i += 3) {
        EXPECT_EQ(answer(queries[i], subset), reference[i]) << "query " << i;
    }

    pn::Channel interleaved({}, 8);
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const NodeId other{100 + static_cast<std::uint32_t>(gen.uniform_int(8))};
        (void)interleaved.fading_db(other, NodeId{200}, gen.uniform(-30.0, 60.0));
        (void)interleaved.fading_db(queries[i].a, other, queries[i].t);
        EXPECT_EQ(answer(queries[i], interleaved), reference[i])
            << "query " << i;
    }
}

TEST(Channel, BlockFadingStatistics) {
    // 200 links x 100 epochs (half of them at negative times, as the
    // key-agreement probes use): N(0, sigma^2) per draw, independent across
    // epochs, constant inside one.
    pn::ChannelParams params;
    params.fading_stddev_db = 4.0;
    params.coherence_time_s = 0.05;
    pn::Channel channel(params, 13);
    constexpr int kLinks = 200;
    constexpr int kEpochs = 100;
    std::vector<double> draws;
    for (int link = 0; link < kLinks; ++link) {
        const NodeId a{static_cast<std::uint32_t>(link)};
        const NodeId b{static_cast<std::uint32_t>(1000 + link)};
        for (int k = -kEpochs / 2; k < kEpochs / 2; ++k) {
            const double start = k * params.coherence_time_s;
            const double value =
                channel.fading_db(a, b, start + 0.5 * params.coherence_time_s);
            for (const double offset : {0.1, 0.3, 0.7, 0.9}) {
                ASSERT_EQ(channel.fading_db(
                              b, a, start + offset * params.coherence_time_s),
                          value)
                    << "link " << link << " epoch " << k;
            }
            draws.push_back(value);
        }
    }
    const double n = static_cast<double>(draws.size());
    double mean = 0.0;
    for (const double v : draws) mean += v;
    mean /= n;
    double var = 0.0, lag = 0.0;
    for (std::size_t i = 0; i < draws.size(); ++i) {
        var += (draws[i] - mean) * (draws[i] - mean);
        // Adjacent epochs of the same link only.
        if ((i + 1) % kEpochs != 0) {
            lag += (draws[i] - mean) * (draws[i + 1] - mean);
        }
    }
    const double stddev = std::sqrt(var / n);
    const double lag_corr = (lag / (n - kLinks)) / (var / n);
    EXPECT_NEAR(mean, 0.0, 0.1);
    EXPECT_NEAR(stddev, params.fading_stddev_db,
                0.03 * params.fading_stddev_db);
    EXPECT_LT(std::abs(lag_corr), 0.05);
}

/// E[10^(X/10)] for X ~ N(0, sigma_db^2) dB: the factor by which fading
/// raises a link's mean linear power.
double mean_fading_factor(double sigma_db) {
    const double s = sigma_db * std::numbers::ln10 / 10.0;
    return std::exp(0.5 * s * s);
}

TEST(Channel, MeanFadingFactorMatchesTheKeyedDraws) {
    // The far-field interference term stands in for the average of the
    // linear fading gain over keyed draws: 500 links x 200 epochs.
    pn::ChannelParams params;
    pn::Channel channel(params, 21);
    constexpr int kLinks = 500;
    constexpr int kEpochs = 200;
    double sum = 0.0;
    for (int link = 0; link < kLinks; ++link) {
        const NodeId a{static_cast<std::uint32_t>(link)};
        const NodeId b{static_cast<std::uint32_t>(5000 + link)};
        for (int k = 0; k < kEpochs; ++k) {
            const double t = (k + 0.5) * params.coherence_time_s;
            sum += std::pow(10.0, channel.fading_db(a, b, t) / 10.0);
        }
    }
    const double mean = sum / (kLinks * kEpochs);
    const double expected = mean_fading_factor(params.fading_stddev_db);
    EXPECT_NEAR(expected, 1.528, 5e-4);  // sigma = 4 dB
    EXPECT_NEAR(mean / expected, 1.0, 0.02);
}

TEST(Channel, MeanRxPowerMatchesTheDbForm) {
    // One pow on a precomputed gain must stay the dB formula it replaces:
    // 10^((tx_power_dbm - path_loss_db(d)) / 10) times the fading factor,
    // at the 1 m clamp, at the default interference range and at the far
    // end of a 45 km corridor.
    pn::ChannelParams params;
    pn::Channel channel(params, 22);
    const double factor = mean_fading_factor(params.fading_stddev_db);
    for (const double d : {0.5, 3000.0, 45000.0}) {
        const double db_form =
            std::pow(10.0,
                     (params.tx_power_dbm - channel.path_loss_db(d)) / 10.0) *
            factor;
        EXPECT_NEAR(channel.mean_rx_power_mw(d) / db_form, 1.0, 1e-12)
            << "d = " << d;
    }
}

TEST(Channel, PerMonotoneInSinr) {
    pn::Channel channel({}, 5);
    EXPECT_GT(channel.packet_error_rate(-5.0, 300),
              channel.packet_error_rate(5.0, 300));
    EXPECT_GT(channel.packet_error_rate(5.0, 300),
              channel.packet_error_rate(20.0, 300));
    EXPECT_LT(channel.packet_error_rate(30.0, 300), 0.01);
    EXPECT_GT(channel.packet_error_rate(-10.0, 300), 0.99);
}

TEST(Channel, LongerFramesMoreFragile) {
    pn::Channel channel({}, 6);
    EXPECT_GT(channel.packet_error_rate(7.0, 2000),
              channel.packet_error_rate(7.0, 100));
}

TEST(Channel, AirtimeScalesWithSize) {
    pn::Channel channel({}, 7);
    const double t100 = channel.airtime(100);
    const double t200 = channel.airtime(200);
    EXPECT_GT(t200, t100);
    // 100 bytes at 6 Mb/s = 133 us + 40 us preamble.
    EXPECT_NEAR(t100, 40e-6 + 800.0 / 6e6, 1e-9);
}

TEST(Channel, PairKeyIsOrderInsensitive) {
    const auto ab = pn::Channel::pair_key(NodeId{100}, NodeId{104});
    const auto ba = pn::Channel::pair_key(NodeId{104}, NodeId{100});
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.lo, 100u);
    EXPECT_EQ(ab.hi, 104u);
}

TEST(Channel, PairKeysDistinctAcrossJammerPseudoNodes) {
    // Jammer noise uses synthetic node ids 0xFFFF0000 + jammer_id. Every
    // (vehicle, pseudo-node) pair must map to its own fading process: a
    // collision would correlate supposedly independent jammers. The old
    // (hi << 32) | lo packing was one id-width widening away from exactly
    // that; the two-word key cannot collide by construction.
    std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
    const std::vector<NodeId> vehicles = {NodeId{100}, NodeId{101},
                                          NodeId{102}, NodeId{1000}};
    for (std::uint32_t jammer = 1; jammer <= 8; ++jammer) {
        const NodeId pseudo{0xFFFF0000u + jammer};
        for (const NodeId v : vehicles) {
            const auto key = pn::Channel::pair_key(v, pseudo);
            EXPECT_EQ(key.hi, pseudo.value);  // pseudo ids sort above real ids
            keys.insert({key.lo, key.hi});
        }
    }
    EXPECT_EQ(keys.size(), 8u * 4u);  // no two pairs merged
    // And pseudo-node pairs never alias a vehicle-vehicle pair.
    const auto vehicle_pair = pn::Channel::pair_key(NodeId{100}, NodeId{101});
    EXPECT_FALSE(keys.contains({vehicle_pair.lo, vehicle_pair.hi}));
}

// ---------------------------------------------------------------------------

struct NetFixture : ::testing::Test {
    Scheduler scheduler;
    pn::Network::Params params;
    std::unique_ptr<pn::Network> network;
    std::vector<std::pair<NodeId, pn::Frame>> received;

    void build(std::uint64_t seed = 11) {
        network = std::make_unique<pn::Network>(scheduler, params, seed);
    }

    void add_node(NodeId id, double position, bool vlc = true) {
        pn::Network::NodeTraits traits;
        traits.vlc = vlc;
        network->register_node(id, [position] { return position; },
                               [this, id](const pn::Frame& f, const pn::RxInfo&) {
                                   received.emplace_back(id, f);
                               },
                               traits);
    }

    pn::Frame beacon_frame(std::uint32_t sender, pn::Band band = pn::Band::kDsrc) {
        pn::Frame f;
        f.type = pn::MsgType::kBeacon;
        f.band = band;
        pn::Beacon b;
        b.sender = sender;
        f.envelope.sender = sender;
        f.envelope.seq = ++seq_;
        f.envelope.payload = b.encode();
        return f;
    }
    std::uint64_t seq_ = 0;
};

TEST_F(NetFixture, DeliversToNearbyNodes) {
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 50.0);
    add_node(NodeId{3}, 100.0);
    network->broadcast(NodeId{1}, beacon_frame(1));
    scheduler.run_until(0.1);
    EXPECT_EQ(received.size(), 2u);  // nodes 2 and 3, not the sender
    EXPECT_EQ(network->stats().delivered, 2u);
}

TEST_F(NetFixture, DoesNotDeliverBeyondMaxRange) {
    params.max_range_m = 300.0;
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 5000.0);
    network->broadcast(NodeId{1}, beacon_frame(1));
    scheduler.run_until(0.1);
    EXPECT_TRUE(received.empty());
    EXPECT_EQ(network->stats().dropped_range, 1u);
}

TEST_F(NetFixture, RangeDropsSplitIntoWindowMissesAndTheFarTail) {
    // Node 2 sits inside the index window (max range plus the slack margin)
    // but past max_range_m, so it fails the exact check; node 3 lies beyond
    // the window and is only bulk-counted.
    params.max_range_m = 300.0;
    params.spatial_slack_margin_m = 10.0;
    build();
    platoon::obs::set_enabled(true);
    platoon::obs::reset_counters();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 305.0);
    add_node(NodeId{3}, 5000.0);
    network->broadcast(NodeId{1}, beacon_frame(1));
    scheduler.run_until(0.1);
    const auto counters = platoon::obs::counter_snapshot();
    platoon::obs::set_enabled(false);
    EXPECT_TRUE(received.empty());
    EXPECT_EQ(counters.at("net.dropped.range.window"), 1u);
    EXPECT_EQ(counters.at("net.dropped.range.far"), 1u);
    EXPECT_EQ(network->stats().dropped_range, 2u);
}

TEST_F(NetFixture, DistantReceiversLoseFrames) {
    params.max_range_m = 3000.0;
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 2500.0);  // far: SNR below threshold
    for (int i = 0; i < 50; ++i) network->broadcast(NodeId{1}, beacon_frame(1));
    scheduler.run_until(1.0);
    EXPECT_LT(received.size(), 10u);
    EXPECT_GT(network->stats().dropped_per, 40u);
}

TEST_F(NetFixture, JammerKillsDelivery) {
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 30.0);
    pn::JammerConfig jam;
    jam.position_m = 30.0;
    jam.power_dbm = 45.0;
    network->add_jammer(jam);
    for (int i = 0; i < 50; ++i) {
        scheduler.schedule_at(i * 0.01, [this, i] {
            (void)i;
            network->broadcast(NodeId{1}, beacon_frame(1));
        });
    }
    scheduler.run_until(2.0);
    // CSMA starves (medium reads busy) and anything transmitted is lost.
    EXPECT_TRUE(received.empty());
    EXPECT_GT(network->stats().dropped_mac + network->stats().dropped_per, 0u);
}

TEST_F(NetFixture, RemoveJammerRestoresDelivery) {
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 30.0);
    pn::JammerConfig jam;
    jam.position_m = 30.0;
    jam.power_dbm = 45.0;
    const int id = network->add_jammer(jam);
    network->remove_jammer(id);
    network->broadcast(NodeId{1}, beacon_frame(1));
    scheduler.run_until(0.1);
    EXPECT_EQ(received.size(), 1u);
}

TEST_F(NetFixture, VlcReachesOnlyAdjacentVehicles) {
    params.vlc_loss_prob = 0.0;
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 15.0);
    add_node(NodeId{3}, 30.0);   // blocked by node 2's body
    add_node(NodeId{4}, -15.0);
    network->broadcast(NodeId{1}, beacon_frame(1, pn::Band::kVlc));
    scheduler.run_until(0.1);
    ASSERT_EQ(received.size(), 2u);
    std::vector<std::uint32_t> ids{received[0].first.value,
                                   received[1].first.value};
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{2, 4}));
}

TEST_F(NetFixture, VlcImmuneToRfJamming) {
    params.vlc_loss_prob = 0.0;
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 10.0);
    pn::JammerConfig jam;
    jam.position_m = 5.0;
    jam.power_dbm = 50.0;
    network->add_jammer(jam);
    network->broadcast(NodeId{1}, beacon_frame(1, pn::Band::kVlc));
    scheduler.run_until(0.1);
    EXPECT_EQ(received.size(), 1u);
}

TEST_F(NetFixture, Cv2xSkipsCsma) {
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 30.0);
    // A DSRC jammer that would starve CSMA does not block C-V2X scheduling.
    pn::JammerConfig jam;
    jam.position_m = 0.0;
    jam.power_dbm = 45.0;
    jam.band = pn::Band::kDsrc;
    network->add_jammer(jam);
    network->broadcast(NodeId{1}, beacon_frame(1, pn::Band::kCv2x));
    scheduler.run_until(0.1);
    EXPECT_EQ(received.size(), 1u);
}

TEST_F(NetFixture, StatsCountSentFrames) {
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 20.0);
    for (int i = 0; i < 10; ++i) network->broadcast(NodeId{1}, beacon_frame(1));
    scheduler.run_until(1.0);
    EXPECT_EQ(network->stats().sent, 10u);
    EXPECT_NEAR(network->stats().pdr(), 1.0, 0.01);
}

TEST_F(NetFixture, UnregisteredNodeStopsReceiving) {
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 20.0);
    network->unregister_node(NodeId{2});
    network->broadcast(NodeId{1}, beacon_frame(1));
    scheduler.run_until(0.1);
    EXPECT_TRUE(received.empty());
}

TEST_F(NetFixture, NonVlcNodesDoNotBlockTheOpticalChain) {
    params.vlc_loss_prob = 0.0;
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 15.0);
    // A roadside listener physically between them has no optical
    // transceivers: it neither receives VLC nor shadows the link.
    add_node(NodeId{99}, 7.0, /*vlc=*/false);
    network->broadcast(NodeId{1}, beacon_frame(1, pn::Band::kVlc));
    scheduler.run_until(0.1);
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].first, NodeId{2});
}

TEST_F(NetFixture, ContentionWindowDoublesAndCaps) {
    build();
    // cw_min = 15: window is (cw_min + 1) << min(attempt, 5).
    EXPECT_EQ(network->contention_window(0), 16);
    EXPECT_EQ(network->contention_window(1), 32);
    EXPECT_EQ(network->contention_window(2), 64);
    EXPECT_EQ(network->contention_window(5), 512);
    EXPECT_EQ(network->contention_window(6), 512);   // capped
    EXPECT_EQ(network->contention_window(100), 512); // no UB past the cap
}

TEST_F(NetFixture, MacBackoffSlotsStayInsideTheContentionWindow) {
    // attempt_transmit draws backoff slots as uniform_int(cw) from the
    // "network.mac" stream. Pin the distribution semantics the MAC relies
    // on: the upper bound is EXCLUSIVE ([0, cw - 1] inclusive), zero-slot
    // backoff is possible, and every slot is reachable. An off-by-one here
    // silently skews channel-access fairness in every experiment.
    build();
    const int cw = network->contention_window(0);
    ASSERT_EQ(cw, 16);
    platoon::sim::RandomStream rng(11, "network.mac");
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t slot =
            rng.uniform_int(static_cast<std::uint64_t>(cw));
        ASSERT_LT(slot, static_cast<std::uint64_t>(cw));
        seen.insert(slot);
    }
    // 4000 draws over 16 slots: every slot, including both endpoints.
    EXPECT_EQ(seen.size(), 16u);
    EXPECT_TRUE(seen.contains(0u));
    EXPECT_TRUE(seen.contains(15u));
    EXPECT_FALSE(seen.contains(16u));
}

TEST_F(NetFixture, FaultLossHookDropsAndCountsDeliveries) {
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 20.0);
    add_node(NodeId{3}, 40.0);
    std::uint64_t consulted = 0;
    network->set_fault_loss([&consulted](NodeId from, NodeId to, pn::Band band,
                                         double /*now*/) {
        EXPECT_EQ(from, NodeId{1});
        EXPECT_TRUE(to == NodeId{2} || to == NodeId{3});
        EXPECT_EQ(band, pn::Band::kDsrc);
        ++consulted;
        return true;  // drop everything
    });
    for (int i = 0; i < 5; ++i) network->broadcast(NodeId{1}, beacon_frame(1));
    scheduler.run_until(1.0);
    EXPECT_TRUE(received.empty());
    EXPECT_EQ(consulted, 10u);  // 5 frames x 2 receivers
    EXPECT_EQ(network->stats().dropped_fault, 10u);
    EXPECT_EQ(network->stats().delivered, 0u);
    // Fault drops are attempts that reached nobody: PDR collapses to 0.
    EXPECT_DOUBLE_EQ(network->stats().pdr(), 0.0);

    // Uninstalling restores delivery and stops the accounting.
    network->set_fault_loss(nullptr);
    network->broadcast(NodeId{1}, beacon_frame(1));
    scheduler.run_until(2.0);
    EXPECT_EQ(received.size(), 2u);
    EXPECT_EQ(network->stats().dropped_fault, 10u);
}

/// SINR at node 1 (0 m) of a frame from node 2 (100 m) while node 3 at
/// `interferer_m` transmits over the same airtime, plus the closed form of
/// that SINR with the interferer's term computed exactly (faded) and as its
/// mean. Carrier sense is off so both frames key up at t = 0.
struct InterferedSinr {
    double reported = std::nan("");
    double with_exact_term = 0.0;
    double with_mean_term = 0.0;
};

InterferedSinr sinr_under_one_interferer(double interferer_m) {
    Scheduler scheduler;
    pn::Network::Params params;
    params.channel.carrier_sense_dbm = 1000.0;
    pn::Network network(scheduler, params, 31);
    InterferedSinr out;
    int heard = 0;
    network.register_node(
        NodeId{1}, [] { return 0.0; },
        [&](const pn::Frame& frame, const pn::RxInfo& info) {
            if (frame.envelope.sender != 2) return;
            out.reported = info.sinr_db;
            ++heard;
        });
    const auto deaf = [](const pn::Frame&, const pn::RxInfo&) {};
    network.register_node(NodeId{2}, [] { return 100.0; }, deaf);
    network.register_node(
        NodeId{3}, [interferer_m] { return interferer_m; }, deaf);
    for (const std::uint32_t sender : {2u, 3u}) {
        pn::Frame frame;
        frame.envelope.sender = sender;
        frame.envelope.seq = 1;
        frame.envelope.payload = pn::Beacon{}.encode();
        network.broadcast(NodeId{sender}, frame);
    }
    scheduler.run_until(0.1);
    EXPECT_EQ(heard, 1);

    const pn::Channel& channel = network.channel();
    const double tx_dbm = params.channel.tx_power_dbm;
    const auto mw = [](double dbm) { return std::pow(10.0, dbm / 10.0); };
    const auto dbm = [](double mw) { return 10.0 * std::log10(mw); };
    const double signal_mw =
        mw(channel.rx_power_dbm(NodeId{2}, NodeId{1}, 100.0, 0.0, tx_dbm));
    const double noise_mw = mw(params.channel.noise_floor_dbm);
    const double exact_mw = mw(
        channel.rx_power_dbm(NodeId{3}, NodeId{1}, interferer_m, 0.0, tx_dbm));
    const double mean_mw = channel.mean_rx_power_mw(interferer_m);
    out.with_exact_term = dbm(signal_mw) - dbm(noise_mw + exact_mw);
    out.with_mean_term = dbm(signal_mw) - dbm(noise_mw + mean_mw);
    return out;
}

TEST(Interference, BeyondTheRangeAnInterfererAddsItsMeanPower) {
    ASSERT_EQ(pn::ChannelParams{}.interference_range_m, 3000.0);
    const InterferedSinr far = sinr_under_one_interferer(5000.0);
    EXPECT_DOUBLE_EQ(far.reported, far.with_mean_term);
    EXPECT_NE(far.reported, far.with_exact_term);
}

TEST(Interference, WithinTheRangeAnInterfererKeepsItsExactFading) {
    const InterferedSinr near = sinr_under_one_interferer(1000.0);
    EXPECT_DOUBLE_EQ(near.reported, near.with_exact_term);
    EXPECT_NE(near.reported, near.with_mean_term);
}

TEST_F(NetFixture, EavesdropperHearsEverything) {
    build();
    add_node(NodeId{1}, 0.0);
    add_node(NodeId{2}, 20.0);
    add_node(NodeId{99}, 60.0);  // passive attacker: just another receiver
    network->broadcast(NodeId{1}, beacon_frame(1));
    scheduler.run_until(0.1);
    bool attacker_heard = false;
    for (const auto& [id, frame] : received) {
        if (id == NodeId{99}) attacker_heard = true;
    }
    EXPECT_TRUE(attacker_heard);
}

}  // namespace
