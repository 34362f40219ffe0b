// The two lookups that shape what a truck follows, checked against
// references that run beside the production code:
//
//  - the radar target, which the scenario resolves from one shared
//    rear-bumper snapshot over all lanes, against the O(n) scan over every
//    vehicle that single-platoon scenarios used to run, at every control
//    step, including lane changes and added vehicles inside one snapshot
//    refresh period;
//  - the beacon-derived predecessor and leader, against the same beacons
//    delivered in another order.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/scenario.hpp"
#include "net/network.hpp"
#include "phys/vehicle_dynamics.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace pc = platoon::core;
namespace pn = platoon::net;
using platoon::phys::VehicleDynamics;
using platoon::sim::NodeId;

namespace {

// --- radar ------------------------------------------------------------------

/// The O(n) reference: the nearest rear bumper ahead (gap > -2 m) in
/// `self`'s lane, over every vehicle in scenario order; equal gaps keep the
/// first. `positions` are the front bumpers the lookup saw.
const VehicleDynamics* scan_radar_target(pc::Scenario& scenario,
                                         std::size_t self_index,
                                         const std::vector<double>& positions) {
    const pc::PlatoonVehicle& self = scenario.vehicle(self_index);
    const double my_pos = positions[self_index];
    const VehicleDynamics* best = nullptr;
    double best_gap = 1e18;
    for (std::size_t j = 0; j < positions.size(); ++j) {
        const pc::PlatoonVehicle& other = scenario.vehicle(j);
        if (j == self_index || other.lane() != self.lane()) continue;
        const double gap = positions[j] - other.dynamics().length() - my_pos;
        if (gap > -2.0 && gap < best_gap) {
            best_gap = gap;
            best = &other.dynamics();
        }
    }
    return best;
}

/// Steps `scenario` one event at a time until `until`. Only a vehicle's own
/// control step moves it, and that step sets the radar target before it
/// integrates, so after every event each vehicle that moved must hold the
/// target the scan picks from the positions before the event. Returns the
/// number of control steps checked; stops at the first mismatch.
std::size_t expect_radar_matches_scan(pc::Scenario& scenario, double until) {
    platoon::sim::Scheduler& scheduler = scenario.scheduler();
    std::vector<double> before;
    std::size_t checked = 0;
    while (scheduler.now() < until) {
        before.clear();
        for (std::size_t i = 0; i < scenario.vehicle_count(); ++i)
            before.push_back(scenario.vehicle(i).dynamics().position());
        if (!scheduler.step()) break;
        for (std::size_t i = 0; i < before.size(); ++i) {
            pc::PlatoonVehicle& self = scenario.vehicle(i);
            if (self.dynamics().position() == before[i]) continue;
            ++checked;
            const VehicleDynamics* want =
                scan_radar_target(scenario, i, before);
            if (self.radar().target() != want) {
                ADD_FAILURE() << "vehicle " << self.id().value << " (lane "
                              << int{self.lane()} << ") at t="
                              << scheduler.now()
                              << " holds a radar target the scan does not "
                                 "pick";
                return checked;
            }
        }
    }
    return checked;
}

/// Primary platoon of six in lane 0 (fronts at 2000, 1983, ... 1915 m: a
/// 12 m truck plus a 5 m gap per slot) and a four-truck platoon in lane 1
/// whose leader's rear bumper sits 1.5 m ahead of primary truck 3's front.
pc::ScenarioConfig two_lane_config() {
    pc::ScenarioConfig config;
    config.seed = 17;
    config.platoon_size = 6;
    config.extra_platoons = {{.size = 4, .start_offset_m = -37.5, .lane = 1}};
    return config;
}

TEST(RadarTarget, MatchesTheScanOnRandomCorridorLayouts) {
    // Random platoons over three lanes, random lane changes at random
    // (off-grid) times, and one vehicle added mid-run.
    for (const std::uint64_t seed : {3ull, 8ull, 21ull}) {
        platoon::sim::RandomStream layout(seed, "test.radar.layout");
        pc::ScenarioConfig config;
        config.seed = seed;
        config.platoon_size = 6;
        for (int p = 0; p < 4; ++p) {
            config.extra_platoons.push_back(
                {.size = 2 + static_cast<std::size_t>(layout.uniform_int(4)),
                 .start_offset_m = layout.uniform(-300.0, 60.0),
                 .lane = static_cast<std::uint8_t>(layout.uniform_int(3)),
                 .speed_delta_mps = layout.uniform(-2.0, 2.0)});
        }
        pc::Scenario scenario(config);
        for (int k = 0; k < 12; ++k) {
            pc::PlatoonVehicle& mover = scenario.vehicle(
                layout.uniform_int(scenario.vehicle_count()));
            const auto lane = static_cast<std::uint8_t>(layout.uniform_int(3));
            scenario.scheduler().schedule_at(
                layout.uniform(0.2, 2.8),
                [&mover, lane] { mover.set_lane(lane); });
        }
        pc::VehicleConfig extra;
        extra.id = NodeId{700};
        extra.role = platoon::control::Role::kFree;
        extra.platoon_id = 0;
        extra.lane = static_cast<std::uint8_t>(layout.uniform_int(3));
        extra.initial_state.speed_mps = 25.0;
        const double extra_front = layout.uniform(1700.0, 2000.0);
        scenario.scheduler().schedule_at(layout.uniform(0.2, 2.8), [&] {
            extra.initial_state.position_m =
                extra_front + 25.0 * scenario.scheduler().now();
            scenario.add_vehicle(extra);
        });
        EXPECT_GT(expect_radar_matches_scan(scenario, 3.0), 5000u)
            << "seed " << seed;
    }
}

TEST(RadarTarget, SeesALaneChangeWithinOneRefreshPeriod) {
    pc::Scenario scenario(two_lane_config());
    pc::PlatoonVehicle& cutter = scenario.corridor_vehicle(1, 0);
    pc::PlatoonVehicle& follower = scenario.vehicle(3);
    // Off the 10 ms control grid, so followers query a snapshot taken
    // before the change.
    scenario.scheduler().schedule_at(1.0137, [&] { cutter.set_lane(0); });
    EXPECT_GT(expect_radar_matches_scan(scenario, 1.5), 1000u);
    // The check above is only as strong as the change it saw.
    EXPECT_EQ(follower.radar().target(), &cutter.dynamics());
}

TEST(RadarTarget, SeesAnAddedVehicleWithinOneRefreshPeriod) {
    pc::Scenario scenario(two_lane_config());
    const pc::PlatoonVehicle* added = nullptr;
    scenario.scheduler().schedule_at(1.0137, [&] {
        // Rear bumper 2 m ahead of primary truck 4's front.
        const double truck4_front = scenario.vehicle(4).dynamics().position();
        pc::VehicleConfig vc;
        vc.id = NodeId{700};
        vc.role = platoon::control::Role::kFree;
        vc.platoon_id = 0;
        vc.initial_state.position_m = truck4_front + 2.0 + 12.0;
        vc.initial_state.speed_mps = 25.0;
        vc.security = scenario.config().security;
        added = &scenario.add_vehicle(vc);
    });
    EXPECT_GT(expect_radar_matches_scan(scenario, 1.5), 1000u);
    ASSERT_NE(added, nullptr);
    EXPECT_EQ(scenario.vehicle(4).radar().target(), &added->dynamics());
}

// --- peers ------------------------------------------------------------------

struct Claim {
    std::uint32_t wire;
    std::uint8_t platoon_index;
    double position_m;
};

/// Feeds one platoon-1 member at 1000 m the claims, in `order`, one beacon
/// every 10 ms from its own transmitter, and returns the member's derived
/// (predecessor, leader) once its control loop has seen them all.
std::pair<std::optional<std::uint32_t>, std::optional<std::uint32_t>>
derive_topology(const std::vector<Claim>& order) {
    platoon::sim::Scheduler scheduler;
    pn::Network network(scheduler, {}, 9);
    pc::VehicleConfig vc;
    vc.id = NodeId{50};
    vc.role = platoon::control::Role::kMember;
    vc.platoon_id = 1;
    vc.initial_state.position_m = 1000.0;
    pc::PlatoonVehicle member(vc, scheduler, network, 9);
    member.start();

    platoon::crypto::MessageProtection open;
    for (std::size_t k = 0; k < order.size(); ++k) {
        const Claim claim = order[k];
        const NodeId radio{600 + claim.wire};
        network.register_node(
            radio, [claim] { return claim.position_m; },
            [](const pn::Frame&, const pn::RxInfo&) {});
        scheduler.schedule_at(0.2 + 0.01 * static_cast<double>(k), [&, claim,
                                                                    radio] {
            pn::Beacon beacon;
            beacon.sender = claim.wire;
            beacon.platoon_id = 1;
            beacon.platoon_index = claim.platoon_index;
            beacon.position_m = claim.position_m;
            beacon.speed_mps = 0.0;
            beacon.length_m = 12.0;
            pn::Frame frame;
            frame.type = pn::MsgType::kBeacon;
            frame.envelope =
                open.protect(claim.wire, platoon::crypto::BytesView(
                                             beacon.encode()),
                             scheduler.now());
            network.broadcast(radio, std::move(frame));
        });
    }
    scheduler.run_until(0.5);
    EXPECT_EQ(member.peers().size(), order.size()) << "a claim was lost";
    const auto topology =
        std::make_pair(member.current_predecessor(), member.current_leader());
    member.stop();
    return topology;
}

TEST(PeerTopology, SameBeaconsInAnyArrivalOrderGiveOneTopology) {
    // Two index-0 claims ahead (wires 705 and 710), two claims at the same
    // distance ahead (715 and 720), one more member ahead and one behind.
    const std::vector<Claim> claims = {
        {705, 0, 1200.0}, {710, 0, 1100.0}, {715, 4, 1030.0},
        {720, 3, 1030.0}, {730, 2, 1060.0}, {740, 5, 970.0},
    };
    const std::vector<Claim> reversed(claims.rbegin(), claims.rend());
    const auto forward = derive_topology(claims);
    const auto backward = derive_topology(reversed);
    EXPECT_EQ(forward, backward);
    // The rule vehicle.hpp states: the distance tie goes to the lowest wire,
    // the leader is the last index-0 claim ahead in wire order.
    EXPECT_EQ(forward.first, std::optional<std::uint32_t>{715});
    EXPECT_EQ(forward.second, std::optional<std::uint32_t>{710});
}

}  // namespace
