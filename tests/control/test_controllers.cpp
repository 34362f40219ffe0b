// Longitudinal controllers: closed-loop behaviour on a simulated string of
// vehicles (no network -- perfect information), string stability, fallback
// degradation, and the platoon-management state machines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "control/controller.hpp"
#include "control/fallback.hpp"
#include "control/platoon.hpp"
#include "phys/vehicle_dynamics.hpp"

namespace ct = platoon::control;
namespace pp = platoon::phys;
using platoon::sim::NodeId;

namespace {

constexpr double kDt = 0.01;

ct::PeerState peer_from(const pp::VehicleDynamics& v, double now) {
    ct::PeerState p;
    p.position_m = v.position();
    p.speed_mps = v.speed();
    p.accel_mps2 = v.accel();
    p.length_m = v.length();
    p.received_at = now;
    return p;
}

/// Simulates a chain of `n` trucks with perfect state sharing; the leader
/// follows `leader_speed(t)`. Returns per-vehicle speed traces.
struct ChainResult {
    std::vector<std::vector<double>> speeds;  // [vehicle][step]
    std::vector<std::vector<double>> gaps;    // [follower-1][step]
    bool collision = false;
};

template <typename MakeController>
ChainResult simulate_chain(int n, double duration,
                           double (*leader_speed)(double),
                           MakeController make_controller,
                           double initial_gap) {
    const auto params = pp::truck_params();
    std::vector<pp::VehicleDynamics> vehicles;
    std::vector<std::unique_ptr<ct::LongitudinalController>> controllers;
    for (int i = 0; i < n; ++i) {
        pp::VehicleState s;
        s.position_m = -static_cast<double>(i) * (initial_gap + params.length_m);
        s.speed_mps = 25.0;
        vehicles.emplace_back(params, s);
        controllers.push_back(make_controller());
    }
    ct::SpeedController leader_ctrl;

    ChainResult result;
    result.speeds.resize(static_cast<std::size_t>(n));
    result.gaps.resize(static_cast<std::size_t>(n - 1));

    const int steps = static_cast<int>(duration / kDt);
    for (int step = 0; step < steps; ++step) {
        const double now = step * kDt;
        for (int i = 0; i < n; ++i) {
            ct::ControlInputs in;
            in.now = now;
            in.own_position_m = vehicles[static_cast<std::size_t>(i)].position();
            in.own_speed_mps = vehicles[static_cast<std::size_t>(i)].speed();
            in.own_accel_mps2 = vehicles[static_cast<std::size_t>(i)].accel();
            double u;
            if (i == 0) {
                in.desired_speed_mps = leader_speed(now);
                u = leader_ctrl.compute(in, kDt);
            } else {
                const auto& pred = vehicles[static_cast<std::size_t>(i - 1)];
                in.predecessor = peer_from(pred, now);
                in.leader = peer_from(vehicles[0], now);
                in.radar_gap_m = pred.position() - pred.length() -
                                 vehicles[static_cast<std::size_t>(i)].position();
                in.radar_closing_mps =
                    vehicles[static_cast<std::size_t>(i)].speed() - pred.speed();
                u = controllers[static_cast<std::size_t>(i)]->compute(in, kDt);
            }
            vehicles[static_cast<std::size_t>(i)].set_command(u);
        }
        for (int i = 0; i < n; ++i) {
            vehicles[static_cast<std::size_t>(i)].step(kDt);
            result.speeds[static_cast<std::size_t>(i)].push_back(
                vehicles[static_cast<std::size_t>(i)].speed());
        }
        for (int i = 1; i < n; ++i) {
            const double gap =
                vehicles[static_cast<std::size_t>(i - 1)].position() -
                vehicles[static_cast<std::size_t>(i - 1)].length() -
                vehicles[static_cast<std::size_t>(i)].position();
            result.gaps[static_cast<std::size_t>(i - 1)].push_back(gap);
            if (gap <= 0.0) result.collision = true;
        }
    }
    return result;
}

double braking_profile(double t) { return t < 20.0 ? 25.0 : (t < 40.0 ? 20.0 : 25.0); }
double constant_profile(double) { return 25.0; }

double oscillation(const std::vector<double>& speeds, double from_frac) {
    double lo = 1e18, hi = -1e18;
    for (std::size_t i = static_cast<std::size_t>(
             static_cast<double>(speeds.size()) * from_frac);
         i < speeds.size(); ++i) {
        lo = std::min(lo, speeds[i]);
        hi = std::max(hi, speeds[i]);
    }
    return hi - lo;
}

TEST(PathCacc, HoldsConstantSpacingAtCruise) {
    const auto r = simulate_chain(
        4, 60.0, constant_profile,
        [] { return std::make_unique<ct::PathCaccController>(); }, 5.0);
    EXPECT_FALSE(r.collision);
    for (const auto& gaps : r.gaps) {
        EXPECT_NEAR(gaps.back(), 5.0, 0.3);
    }
}

TEST(PathCacc, StringStableUnderBraking) {
    const auto r = simulate_chain(
        8, 80.0, braking_profile,
        [] { return std::make_unique<ct::PathCaccController>(); }, 5.0);
    EXPECT_FALSE(r.collision);
    // Speed excursion must not amplify down the string (string stability):
    // the last vehicle's swing is no bigger than the 2nd vehicle's.
    const double first = oscillation(r.speeds[1], 0.25);
    const double last = oscillation(r.speeds[7], 0.25);
    EXPECT_LE(last, first * 1.10);
    // And gaps recover to the set point.
    for (const auto& gaps : r.gaps) EXPECT_NEAR(gaps.back(), 5.0, 0.5);
}

TEST(PathCacc, ConvergesFromPerturbedSpacing) {
    const auto r = simulate_chain(
        4, 90.0, constant_profile,
        [] { return std::make_unique<ct::PathCaccController>(); }, 12.0);
    EXPECT_FALSE(r.collision);
    for (const auto& gaps : r.gaps) EXPECT_NEAR(gaps.back(), 5.0, 0.5);
}

TEST(PloegCacc, HoldsTimeGapSpacing) {
    const auto r = simulate_chain(
        4, 90.0, constant_profile,
        [] { return std::make_unique<ct::PloegCaccController>(); }, 29.5);
    EXPECT_FALSE(r.collision);
    // h = 1.1 s at 25 m/s + 2 m standstill = 29.5 m.
    for (const auto& gaps : r.gaps) EXPECT_NEAR(gaps.back(), 29.5, 1.5);
}

TEST(PloegCacc, StringStableUnderBraking) {
    const auto r = simulate_chain(
        8, 90.0, braking_profile,
        [] { return std::make_unique<ct::PloegCaccController>(); }, 29.5);
    EXPECT_FALSE(r.collision);
    const double first = oscillation(r.speeds[1], 0.2);
    const double last = oscillation(r.speeds[7], 0.2);
    EXPECT_LE(last, first * 1.15);
}

TEST(Acc, KeepsTimeGapWithoutCooperation) {
    const auto r = simulate_chain(
        4, 120.0, constant_profile,
        [] { return std::make_unique<ct::AccController>(); }, 32.0);
    EXPECT_FALSE(r.collision);
    // h = 1.2 s at 25 m/s + 2 m = 32 m.
    for (const auto& gaps : r.gaps) EXPECT_NEAR(gaps.back(), 32.0, 2.5);
}

TEST(Acc, GapsMuchWiderThanCacc) {
    const auto acc = simulate_chain(
        3, 120.0, constant_profile,
        [] { return std::make_unique<ct::AccController>(); }, 32.0);
    const auto cacc = simulate_chain(
        3, 120.0, constant_profile,
        [] { return std::make_unique<ct::PathCaccController>(); }, 5.0);
    EXPECT_GT(acc.gaps[0].back(), 4.0 * cacc.gaps[0].back());
}

TEST(Acc, FreeFlowTracksDesiredSpeed) {
    ct::AccController acc;
    pp::VehicleDynamics v(pp::truck_params(), {0.0, 20.0, 0.0});
    for (int i = 0; i < 6000; ++i) {
        ct::ControlInputs in;
        in.own_speed_mps = v.speed();
        in.desired_speed_mps = 25.0;
        v.set_command(acc.compute(in, kDt));
        v.step(kDt);
    }
    EXPECT_NEAR(v.speed(), 25.0, 0.3);
}

TEST(SpeedController, ConvergesToTarget) {
    ct::SpeedController ctrl;
    pp::VehicleDynamics v(pp::truck_params(), {0.0, 25.0, 0.0});
    for (int i = 0; i < 6000; ++i) {
        ct::ControlInputs in;
        in.own_speed_mps = v.speed();
        in.desired_speed_mps = 20.0;
        v.set_command(ctrl.compute(in, kDt));
        v.step(kDt);
    }
    EXPECT_NEAR(v.speed(), 20.0, 0.1);
}

// ---------------------------------------------------------------------------

TEST(Fallback, DegradesToAccWhenBeaconsStale) {
    ct::ControllerStack stack(std::make_unique<ct::PathCaccController>());
    ct::ControlInputs in;
    in.now = 10.0;
    in.radar_gap_m = 20.0;
    in.radar_closing_mps = 0.0;
    ct::PeerState fresh;
    fresh.received_at = 9.9;
    in.predecessor = fresh;
    in.leader = fresh;
    stack.compute(in, kDt);
    EXPECT_EQ(stack.mode(), ct::ControlMode::kCacc);

    ct::PeerState stale;
    stale.received_at = 5.0;  // 5 s old
    in.predecessor = stale;
    in.leader = stale;
    stack.compute(in, kDt);
    EXPECT_EQ(stack.mode(), ct::ControlMode::kAccFallback);
}

TEST(Fallback, CoastsWithNothing) {
    ct::ControllerStack stack(std::make_unique<ct::PathCaccController>());
    ct::ControlInputs in;
    in.now = 10.0;  // no radar, no beacons
    const double u = stack.compute(in, kDt);
    EXPECT_EQ(stack.mode(), ct::ControlMode::kCoast);
    EXPECT_LT(u, 0.0);
}

TEST(Fallback, QuarantineForcesAccDespiteFreshBeacons) {
    ct::ControllerStack stack(std::make_unique<ct::PathCaccController>());
    ct::ControlInputs in;
    in.now = 10.0;
    in.radar_gap_m = 20.0;
    ct::PeerState fresh;
    fresh.received_at = 10.0;
    in.predecessor = fresh;
    in.leader = fresh;
    stack.quarantine_beacons(true);
    stack.compute(in, kDt);
    EXPECT_EQ(stack.mode(), ct::ControlMode::kAccFallback);
    stack.quarantine_beacons(false);
    stack.compute(in, kDt);
    EXPECT_EQ(stack.mode(), ct::ControlMode::kCacc);
}

TEST(Fallback, TracksTimeInModes) {
    ct::ControllerStack stack(std::make_unique<ct::PathCaccController>());
    ct::ControlInputs in;
    in.now = 0.0;
    in.radar_gap_m = 20.0;
    for (int i = 0; i < 100; ++i) stack.compute(in, kDt);  // ACC: no beacons
    EXPECT_NEAR(stack.time_in_mode(ct::ControlMode::kAccFallback), 1.0, 1e-9);
    EXPECT_LT(stack.cacc_availability(), 0.01);
}

// ---------------------------------------------------------------------------

TEST(Membership, OrderAndPredecessors) {
    ct::Membership m(1, NodeId{100});
    m.append(NodeId{101});
    m.append(NodeId{102});
    EXPECT_EQ(m.size(), 3u);
    EXPECT_EQ(m.tail(), NodeId{102});
    EXPECT_EQ(m.index_of(NodeId{101}), 1u);
    EXPECT_EQ(m.predecessor_of(NodeId{102}), NodeId{101});
    EXPECT_EQ(m.predecessor_of(NodeId{100}), std::nullopt);
    EXPECT_FALSE(m.index_of(NodeId{999}).has_value());
    m.remove(NodeId{101});
    EXPECT_EQ(m.predecessor_of(NodeId{102}), NodeId{100});
}

TEST(Admission, AcceptsUntilPendingFull) {
    ct::AdmissionControl::Params p;
    p.max_pending = 2;
    p.max_members = 10;
    ct::AdmissionControl adm(p);
    using D = ct::AdmissionControl::Decision;
    EXPECT_EQ(adm.on_join_request(NodeId{1}, 3, 0.0), D::kAccept);
    EXPECT_EQ(adm.on_join_request(NodeId{2}, 3, 0.0), D::kAccept);
    EXPECT_EQ(adm.on_join_request(NodeId{3}, 3, 0.0), D::kDenyPending);
    adm.on_join_resolved(NodeId{1});
    EXPECT_EQ(adm.on_join_request(NodeId{3}, 3, 0.1), D::kAccept);
}

TEST(Admission, DeniesWhenPlatoonFull) {
    ct::AdmissionControl::Params p;
    p.max_members = 4;
    ct::AdmissionControl adm(p);
    EXPECT_EQ(adm.on_join_request(NodeId{1}, 4, 0.0),
              ct::AdmissionControl::Decision::kDenyFull);
}

TEST(Admission, PendingExpires) {
    ct::AdmissionControl::Params p;
    p.max_pending = 1;
    p.pending_timeout_s = 5.0;
    ct::AdmissionControl adm(p);
    using D = ct::AdmissionControl::Decision;
    EXPECT_EQ(adm.on_join_request(NodeId{1}, 2, 0.0), D::kAccept);
    EXPECT_EQ(adm.on_join_request(NodeId{2}, 2, 1.0), D::kDenyPending);
    EXPECT_EQ(adm.on_join_request(NodeId{2}, 2, 6.0), D::kAccept);
    EXPECT_EQ(adm.pending(), 1u);
}

TEST(Admission, RateLimitPerIdentity) {
    ct::AdmissionControl adm;
    adm.set_rate_limit(2.0);
    using D = ct::AdmissionControl::Decision;
    EXPECT_EQ(adm.on_join_request(NodeId{1}, 2, 0.0), D::kAccept);
    adm.on_join_resolved(NodeId{1});
    EXPECT_EQ(adm.on_join_request(NodeId{1}, 2, 0.5), D::kDenyRateLimited);
    EXPECT_EQ(adm.on_join_request(NodeId{1}, 2, 3.0), D::kAccept);
}

TEST(JoinerFsm, HappyPath) {
    ct::JoinerFsm fsm;
    using S = ct::JoinerFsm::State;
    EXPECT_EQ(fsm.state(), S::kIdle);
    EXPECT_TRUE(fsm.on_request_sent(1.0));
    EXPECT_EQ(fsm.state(), S::kRequested);
    EXPECT_TRUE(fsm.on_accept(1.2));
    EXPECT_EQ(fsm.state(), S::kApproach);
    EXPECT_FALSE(fsm.on_progress(10.0, 3.0));  // too far
    EXPECT_TRUE(fsm.on_progress(1.0, 0.5));
    EXPECT_EQ(fsm.state(), S::kJoined);
}

TEST(JoinerFsm, DenyAndTimeout) {
    ct::JoinerFsm fsm;
    using S = ct::JoinerFsm::State;
    fsm.on_request_sent(1.0);
    EXPECT_TRUE(fsm.on_deny());
    EXPECT_EQ(fsm.state(), S::kDenied);

    ct::JoinerFsm fsm2;
    fsm2.on_request_sent(1.0);
    EXPECT_FALSE(fsm2.on_timeout(2.0));  // not yet
    EXPECT_TRUE(fsm2.on_timeout(7.0));
    EXPECT_EQ(fsm2.state(), S::kIdle);   // free to retry
    EXPECT_EQ(fsm2.attempts(), 1);
}

// Parameterised string-stability sweep: all three controllers must survive a
// hard braking wave without collision at their natural spacing.
//
// gtest names each case after the raw bytes of its parameter. The explicit
// zero field fills what would otherwise be uninitialised padding, so every
// case gets the same name on every run.
struct ControllerCase {
    ControllerCase(ct::ControllerType t, double gap)
        : type(t), initial_gap(gap) {}

    ct::ControllerType type;
    std::int32_t reserved = 0;
    double initial_gap;
};
static_assert(sizeof(ControllerCase) == sizeof(ct::ControllerType) +
                                            sizeof(std::int32_t) +
                                            sizeof(double),
              "ControllerCase must have no padding bytes");

class ControllerSweep : public ::testing::TestWithParam<ControllerCase> {};

TEST_P(ControllerSweep, SurvivesBrakingWave) {
    const auto param = GetParam();
    const auto r = simulate_chain(
        6, 80.0, braking_profile,
        [&] { return ct::make_controller(param.type); }, param.initial_gap);
    EXPECT_FALSE(r.collision) << ct::to_string(param.type);
    // Everyone recovers cruise speed.
    for (const auto& speeds : r.speeds) EXPECT_NEAR(speeds.back(), 25.0, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    AllControllers, ControllerSweep,
    ::testing::Values(ControllerCase{ct::ControllerType::kCaccPath, 5.0},
                      ControllerCase{ct::ControllerType::kCaccPloeg, 29.5},
                      ControllerCase{ct::ControllerType::kAcc, 32.0}));

}  // namespace
