// Attack/defense integration: every Table II attack measurably harms an
// undefended platoon, and the Table III mechanism mapped to it restores
// health. These are the assertions behind bench_table2/bench_table3.
#include <gtest/gtest.h>

#include <vector>

#include "core/scenario.hpp"
#include "security/attacks/dos.hpp"
#include "security/attacks/eavesdrop.hpp"
#include "security/attacks/fake_maneuver.hpp"
#include "security/attacks/gps_spoof.hpp"
#include "security/attacks/impersonation.hpp"
#include "security/attacks/jamming.hpp"
#include "security/attacks/malware.hpp"
#include "security/attacks/replay.hpp"
#include "security/attacks/sensor_spoof.hpp"
#include "security/attacks/sybil.hpp"

namespace pc = platoon::core;
namespace ps = platoon::security;
namespace ct = platoon::control;
using platoon::crypto::AuthMode;
using platoon::sim::NodeId;

namespace {

pc::ScenarioConfig base_config(std::uint64_t seed = 11) {
    pc::ScenarioConfig config;
    config.seed = seed;
    config.platoon_size = 6;
    return config;
}

template <typename AttackT>
pc::MetricsSummary run_attacked(pc::ScenarioConfig config, AttackT& attack,
                                double duration = 70.0,
                                pc::Scenario** out = nullptr) {
    static std::unique_ptr<pc::Scenario> keeper;
    keeper = std::make_unique<pc::Scenario>(std::move(config));
    attack.attach(*keeper);
    keeper->run_until(duration);
    if (out != nullptr) *out = keeper.get();
    return keeper->summarize();
}

// --- Replay ---------------------------------------------------------------

TEST(ReplayAttack, DestabilisesOpenPlatoon) {
    pc::Scenario baseline(base_config());
    baseline.run_until(70.0);
    const auto clean = baseline.summarize();

    ps::ReplayAttack attack;
    const auto hit = run_attacked(base_config(), attack);
    EXPECT_GT(attack.frames_replayed(), 100u);
    // Stale kinematics injected into the CACC: spacing noticeably worse.
    EXPECT_GT(hit.spacing_rms_m, 2.0 * clean.spacing_rms_m);
}

TEST(ReplayAttack, NeutralisedByAuthenticationAndReplayGuard) {
    auto config = base_config();
    config.security.auth_mode = AuthMode::kGroupMac;  // includes replay guard
    ps::ReplayAttack attack;
    const auto defended = run_attacked(config, attack);
    EXPECT_GT(attack.frames_replayed(), 100u);
    EXPECT_GT(defended.rejected_replay + defended.rejected_auth, 50u);
    EXPECT_LT(defended.spacing_rms_m, 1.0);
    EXPECT_EQ(defended.collisions, 0);
}

// --- Sybil -----------------------------------------------------------------

TEST(SybilAttack, GhostVehiclesHijackFollowers) {
    ps::SybilAttack attack;
    pc::Scenario* scenario = nullptr;
    const auto hit = run_attacked(base_config(), attack, 70.0, &scenario);
    EXPECT_GT(attack.ghost_beacons(), 500u);
    // Victims now follow braking ghosts: spacing blows up.
    EXPECT_GT(hit.spacing_rms_m, 3.0);
    // Ghost join requests clog the admission table.
    EXPECT_GT(scenario->leader().admission().pending(), 0u);
}

TEST(SybilAttack, SignaturesRejectGhosts) {
    auto config = base_config();
    config.security.auth_mode = AuthMode::kSignature;
    ps::SybilAttack attack;
    const auto defended = run_attacked(config, attack);
    EXPECT_GT(defended.rejected_auth, 100u);  // ghosts can't sign
    EXPECT_LT(defended.spacing_rms_m, 1.0);
    EXPECT_EQ(defended.collisions, 0);
}

TEST(SybilAttack, VpdAdaQuarantinesGhostsWithoutCrypto) {
    auto config = base_config();
    config.security.vpd_ada = true;  // control-algorithm defense only
    ps::SybilAttack attack;
    const auto defended = run_attacked(config, attack);
    EXPECT_GT(defended.vpd_detections, 0u);
    // The radar contradicts the ghost: victims quarantine beacons and fall
    // back to radar ACC. That trades efficiency (wide ACC gaps) for safety:
    // no hard braking cascades, no collisions, no dangerous closing.
    EXPECT_EQ(defended.collisions, 0);
    EXPECT_GT(defended.min_gap_m, 0.3);  // AEB floor, no contact
}

// --- Fake maneuvers ----------------------------------------------------------

TEST(FakeManeuverAttack, GapOpenBleedsEfficiency) {
    ps::FakeManeuverAttack attack;
    const auto hit = run_attacked(base_config(), attack);
    // Every member holds a 30 m gap: spacing error ~ 25 m.
    EXPECT_GT(hit.spacing_rms_m, 8.0);
}

TEST(FakeManeuverAttack, DissolveDisbandsPlatoon) {
    ps::FakeManeuverAttack::Params params;
    params.variant = ps::FakeManeuverAttack::Variant::kDissolve;
    ps::FakeManeuverAttack attack(params);
    pc::Scenario* scenario = nullptr;
    run_attacked(base_config(), attack, 70.0, &scenario);
    std::size_t detached = 0;
    for (std::size_t i = 1; i < scenario->config().platoon_size; ++i)
        detached += scenario->vehicle(i).detached();
    EXPECT_EQ(detached, scenario->config().platoon_size - 1);
}

TEST(FakeManeuverAttack, SignaturesBlockForgedCommands) {
    auto config = base_config();
    config.security.auth_mode = AuthMode::kSignature;
    ps::FakeManeuverAttack::Params params;
    params.variant = ps::FakeManeuverAttack::Variant::kDissolve;
    ps::FakeManeuverAttack attack(params);
    pc::Scenario* scenario = nullptr;
    const auto defended = run_attacked(config, attack, 70.0, &scenario);
    for (std::size_t i = 1; i < scenario->config().platoon_size; ++i)
        EXPECT_FALSE(scenario->vehicle(i).detached());
    EXPECT_LT(defended.spacing_rms_m, 1.0);
}

// --- Jamming ------------------------------------------------------------------

TEST(JammingAttack, CollapsesBeaconingAndCacc) {
    ps::JammingAttack attack;
    const auto hit = run_attacked(base_config(), attack);
    EXPECT_LT(hit.pdr, 0.7);
    EXPECT_LT(hit.cacc_availability, 0.6);  // fell back to radar ACC
    // ACC stretches gaps: spacing error explodes (platooning gains gone).
    EXPECT_GT(hit.spacing_rms_m, 5.0);
    EXPECT_EQ(hit.collisions, 0);  // degradation is safe
}

TEST(JammingAttack, HybridCv2xAlsoKeepsPlatoonTogether) {
    auto config = base_config();
    config.security.hybrid_comms = true;
    config.security.secondary_band = platoon::net::Band::kCv2x;
    ps::JammingAttack attack;  // DSRC-band jammer only
    const auto defended = run_attacked(config, attack);
    // C-V2X keeps the platoon alive, but less cleanly than VLC: it is
    // still an RF broadcast, so its relays and confirmations jitter more
    // under the adjacent-band assault.
    EXPECT_GT(defended.cacc_availability, 0.9);
    EXPECT_LT(defended.spacing_rms_m, 5.0);
}

TEST(JammingAttack, WidebandJammerDefeatsCv2xButNotVlc) {
    ps::JammingAttack::Params params;
    params.jam_cv2x_too = true;  // wideband RF jammer

    auto cv2x_config = base_config();
    cv2x_config.security.hybrid_comms = true;
    cv2x_config.security.secondary_band = platoon::net::Band::kCv2x;
    ps::JammingAttack wideband_a(params);
    const auto cv2x = run_attacked(cv2x_config, wideband_a);

    auto vlc_config = base_config();
    vlc_config.security.hybrid_comms = true;  // default secondary: VLC
    ps::JammingAttack wideband_b(params);
    const auto vlc = run_attacked(vlc_config, wideband_b);

    // Both secondary channels are RF-independent claims -- but only VLC
    // actually is: the wideband jammer takes C-V2X down with 802.11p.
    EXPECT_LT(cv2x.cacc_availability, 0.6);
    EXPECT_GT(vlc.cacc_availability, 0.9);
}

TEST(JammingAttack, HybridVlcKeepsPlatoonTogether) {
    auto config = base_config();
    config.security.hybrid_comms = true;
    ps::JammingAttack attack;
    const auto defended = run_attacked(config, attack);
    EXPECT_GT(defended.cacc_availability, 0.9);
    EXPECT_LT(defended.spacing_rms_m, 1.5);
}

TEST(JammingAttack, EncryptedGroupMacRelaysReachTheRearIntact) {
    // Members relay leader beacons over SP-VLC by forwarding the frame they
    // received. The group-MAC tag covers the ciphertext, so a relay that
    // forwarded anything but the pristine wire bytes (the decrypted
    // envelope, say) would fail every downstream tag check. Under RF
    // jamming the rear members hear the leader only through such relays.
    auto config = base_config();
    config.security.hybrid_comms = true;  // default secondary band: VLC
    config.security.auth_mode = AuthMode::kGroupMac;
    config.security.encrypt_payloads = true;
    pc::Scenario scenario(config);
    ps::JammingAttack attack;
    attack.attach(scenario);

    const std::uint32_t leader_wire = scenario.vehicle(0).wire_id();
    const NodeId leader_node = scenario.vehicle(0).id();
    std::vector<std::uint64_t> relayed(config.platoon_size, 0);
    for (std::size_t i = 2; i < config.platoon_size; ++i) {
        scenario.vehicle(i).set_message_observer(
            [&relayed, i, leader_wire, leader_node](
                const pc::PlatoonVehicle&,
                const pc::PlatoonVehicle::MessageObservation& obs) {
                if (obs.beacon != nullptr && obs.accepted &&
                    obs.rx.band == platoon::net::Band::kVlc &&
                    obs.frame.envelope.sender == leader_wire &&
                    obs.rx.physical_sender != leader_node)
                    ++relayed[i];
            });
    }
    scenario.run_until(40.0);

    for (std::size_t i = 2; i < config.platoon_size; ++i)
        EXPECT_GT(relayed[i], 0u) << "member " << i;
    for (std::size_t i = 0; i < scenario.vehicle_count(); ++i)
        EXPECT_EQ(scenario.vehicle(i).counters().rejected_bad_tag, 0u)
            << "vehicle " << i;
}

// --- Eavesdropping --------------------------------------------------------------

TEST(EavesdropAttack, ReadsOpenTrafficAndTracksVehicles) {
    ps::EavesdropAttack attack;
    const auto hit = run_attacked(base_config(), attack);
    (void)hit;
    EXPECT_GT(attack.beacons_decoded(), 500u);
    EXPECT_GT(attack.longest_track_s(), 30.0);
    EXPECT_LT(attack.tracking_error_m(), 10.0);  // trajectories exposed
}

TEST(EavesdropAttack, EncryptionBlindsListener) {
    auto config = base_config();
    config.security.auth_mode = AuthMode::kGroupMac;
    config.security.encrypt_payloads = true;
    ps::EavesdropAttack attack;
    run_attacked(config, attack);
    EXPECT_EQ(attack.beacons_decoded(), 0u);
}

TEST(EavesdropAttack, PseudonymRotationShortensTracks) {
    auto config = base_config();
    config.security.auth_mode = AuthMode::kSignature;
    config.security.pseudonym_rotation_s = 10.0;
    ps::EavesdropAttack attack;
    run_attacked(config, attack);
    EXPECT_GT(attack.beacons_decoded(), 100u);  // plaintext, but...
    EXPECT_LT(attack.longest_track_s(), 12.0);  // ...links break every 10 s
}

// --- DoS ---------------------------------------------------------------------

/// Adds a legitimate joiner that asks to join at t=25 s.
pc::PlatoonVehicle& add_legit_joiner(pc::Scenario& scenario) {
    pc::VehicleConfig joiner;
    joiner.id = NodeId{300};
    joiner.role = ct::Role::kFree;
    joiner.platoon_id = 0;
    joiner.security = scenario.config().security;
    joiner.initial_state.position_m =
        scenario.tail().dynamics().position() - 80.0;
    joiner.initial_state.speed_mps = 25.0;
    joiner.desired_speed_mps = 28.0;
    auto& vehicle = scenario.add_vehicle(joiner);
    scenario.scheduler().schedule_at(25.0, [&] {
        vehicle.request_join(scenario.platoon_id(), scenario.leader().id());
    });
    return vehicle;
}

TEST(DosAttack, JoinFloodBlocksLegitimateJoiner) {
    pc::Scenario scenario(base_config());
    ps::DosAttack attack;
    attack.attach(scenario);
    auto& joiner = add_legit_joiner(scenario);
    scenario.run_until(90.0);
    EXPECT_GT(attack.requests_sent(), 500u);
    EXPECT_NE(joiner.role(), ct::Role::kMember);  // never admitted
}

TEST(DosAttack, WithoutAttackJoinerGetsIn) {
    pc::Scenario scenario(base_config());
    auto& joiner = add_legit_joiner(scenario);
    scenario.run_until(90.0);
    EXPECT_EQ(joiner.role(), ct::Role::kMember);
}

TEST(DosAttack, SignatureRequirementRestoresAvailability) {
    auto config = base_config();
    config.security.auth_mode = AuthMode::kSignature;
    pc::Scenario scenario(config);
    ps::DosAttack attack;
    attack.attach(scenario);
    auto& joiner = add_legit_joiner(scenario);
    scenario.run_until(90.0);
    // The flood's unsigned requests are discarded before admission.
    EXPECT_EQ(joiner.role(), ct::Role::kMember);
}

// --- Impersonation ---------------------------------------------------------------

TEST(ImpersonationAttack, StolenCredentialDefeatsSignaturesAlone) {
    auto config = base_config();
    config.security.auth_mode = AuthMode::kSignature;
    ps::ImpersonationAttack::Params params;
    params.send_dissolve = true;  // dissolve as the leader
    ps::ImpersonationAttack attack(params);
    pc::Scenario* scenario = nullptr;
    run_attacked(config, attack, 70.0, &scenario);
    std::size_t detached = 0;
    for (std::size_t i = 1; i < scenario->config().platoon_size; ++i)
        detached += scenario->vehicle(i).detached();
    EXPECT_GT(detached, 0u);  // forged-but-validly-signed dissolve obeyed
}

TEST(ImpersonationAttack, RsuEcosystemRevokesStolenIdentity) {
    auto config = base_config();
    config.security.auth_mode = AuthMode::kSignature;
    config.security.vpd_ada = true;             // plausibility checks
    config.security.report_misbehavior = true;  // feed the RSU
    config.rsu_count = 4;
    ps::ImpersonationAttack::Params params;
    params.send_dissolve = false;  // beacon-level identity abuse
    ps::ImpersonationAttack attack(params);
    pc::Scenario* scenario = nullptr;
    const auto defended = run_attacked(config, attack, 70.0, &scenario);
    // The victim heard its clone and/or peers flagged implausible claims;
    // the TA revoked the stolen credential.
    EXPECT_GE(scenario->authority().reports_received(), 1u);
    EXPECT_GE(scenario->authority().revoked_credentials(), 1u);
    // After CRL distribution the forged frames bounce.
    EXPECT_GT(defended.rejected_auth, 0u);
    EXPECT_EQ(defended.collisions, 0);
}

// --- GPS spoofing ------------------------------------------------------------------

TEST(GpsSpoofAttack, WalkOffKnocksVictimOutOfPlatoon) {
    ps::GpsSpoofAttack attack;
    pc::Scenario* scenario = nullptr;
    const auto hit = run_attacked(base_config(), attack, 80.0, &scenario);
    EXPECT_GT(attack.current_offset(), 50.0);
    // The victim's own-position estimate is dragged off; it loses its
    // predecessor and degrades -- availability and spacing suffer.
    EXPECT_LT(hit.cacc_availability, 0.95);
    EXPECT_GT(hit.spacing_rms_m, 2.0);
}

TEST(GpsSpoofAttack, SensorFusionCatchesAndContains) {
    auto config = base_config();
    config.security.sensor_fusion = true;
    ps::GpsSpoofAttack attack;
    pc::Scenario* scenario = nullptr;
    const auto defended = run_attacked(config, attack, 80.0, &scenario);
    EXPECT_GE(scenario->vehicle(3).gps_fusion().detections(), 1u);
    EXPECT_GT(defended.cacc_availability, 0.95);
    EXPECT_LT(defended.spacing_rms_m, 1.5);
}

// --- Radar spoofing -----------------------------------------------------------------

TEST(SensorSpoofAttack, PhantomTargetCausesHardBraking) {
    ps::SensorSpoofAttack attack;
    const auto hit = run_attacked(base_config(), attack, 70.0);
    // Victim AEB-brakes for a ghost target: the platoon tears wide open.
    EXPECT_GT(hit.spacing_max_abs_m, 30.0);
}

TEST(SensorSpoofAttack, RadarFusionDiscardsLyingSensor) {
    // Undefended magnitude for comparison.
    ps::SensorSpoofAttack bare;
    const auto hit = run_attacked(base_config(), bare, 70.0);

    auto config = base_config();
    config.security.sensor_fusion = true;
    ps::SensorSpoofAttack attack;
    pc::Scenario* scenario = nullptr;
    const auto defended = run_attacked(config, attack, 70.0, &scenario);
    EXPECT_GE(scenario->vehicle(3).radar_fusion().detections(), 1u);
    // One AEB bite before the fusion benches the radar, then recovery:
    // a bounded transient instead of a runaway split.
    EXPECT_LT(defended.spacing_max_abs_m, 0.6 * hit.spacing_max_abs_m);
    EXPECT_LT(defended.spacing_max_abs_m, 25.0);
    EXPECT_EQ(defended.collisions, 0);
}

TEST(SensorSpoofAttack, JamModeDegradesToBeaconCacc) {
    ps::SensorSpoofAttack::Params params;
    params.mode = ps::SensorSpoofAttack::Mode::kJam;
    ps::SensorSpoofAttack attack(params);
    const auto hit = run_attacked(base_config(), attack, 70.0);
    // Radar gone, beacons still flow: CACC runs on claimed positions; the
    // platoon survives with degraded spacing accuracy.
    EXPECT_EQ(hit.collisions, 0);
}

// --- Malware -------------------------------------------------------------------------

TEST(MalwareAttack, FdiInsiderDisturbsFollowers) {
    pc::Scenario baseline(base_config());
    baseline.run_until(70.0);
    const auto clean = baseline.summarize();

    ps::MalwareAttack attack;
    const auto hit = run_attacked(base_config(), attack);
    EXPECT_GT(attack.infected_time(), 30.0);  // no defenses: stays infected
    EXPECT_GT(hit.spacing_rms_m, 1.5 * clean.spacing_rms_m);
}

TEST(MalwareAttack, SilencePayloadMutesVictimAndReroutesFollower) {
    ps::MalwareAttack::Params params;
    params.payload = ps::MalwareAttack::Payload::kSilence;
    ps::MalwareAttack attack(params);
    pc::Scenario* scenario = nullptr;
    const auto hit = run_attacked(base_config(), attack, 70.0, &scenario);
    // The victim went dark for ~50 of 70 s...
    EXPECT_LT(scenario->vehicle(3).beacons_sent(), 350u);
    // ...so its follower now keys its CACC off the next vehicle ahead
    // (claimed-position routing around the hole keeps the platoon alive).
    ASSERT_TRUE(scenario->vehicle(4).current_predecessor().has_value());
    EXPECT_EQ(*scenario->vehicle(4).current_predecessor(),
              scenario->vehicle(2).wire_id());
    EXPECT_EQ(hit.collisions, 0);
}

TEST(MalwareAttack, FirewallAndAntivirusContain) {
    auto config = base_config();
    config.security.firewall = true;
    config.security.antivirus = true;
    ps::MalwareAttack attack;
    const auto defended = run_attacked(config, attack);
    (void)defended;
    // Most attempts blocked; infections that land are cleaned quickly.
    EXPECT_LT(attack.infected_time(), 25.0);
}

TEST(MalwareAttack, VpdAdaShieldsFollowerFromFdi) {
    auto config = base_config();
    config.security.vpd_ada = true;
    ps::MalwareAttack attack;
    const auto defended = run_attacked(config, attack);
    // The lying insider is detected; its follower stops consuming the FDI
    // feed (safety contained -- at the cost of ACC-fallback efficiency).
    EXPECT_GT(defended.vpd_detections, 0u);
    EXPECT_EQ(defended.collisions, 0);
    EXPECT_GT(defended.min_gap_m, 2.0);
}

}  // namespace
