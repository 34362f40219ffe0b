// PlatoonVehicle: the full per-vehicle application stack.
//
// Wires together dynamics + sensors (phys), the wireless stack (net +
// crypto envelope), the controllers with their degradation ladder
// (control), and the defense mechanisms (security). Runs two periodic
// loops on the simulation scheduler: a 100 Hz control step and a 10 Hz
// CAM beacon, exactly the Plexe cadence.
//
// The attack surface is explicit:
//  - sensors expose spoof/jam hooks (GPS & radar attacks),
//  - `set_beacon_mutator` / `set_drop_beacons` model a compromised ECU
//    (malware, FDI insider),
//  - the crypto envelope accepts whatever identity the MessageProtection
//    is provisioned with (impersonation = provisioning a stolen credential),
//  - everything else attacks the medium, not the vehicle.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "control/controller.hpp"
#include "control/fallback.hpp"
#include "control/platoon.hpp"
#include "crypto/secured_message.hpp"
#include "net/network.hpp"
#include "phys/fuel.hpp"
#include "phys/sensors.hpp"
#include "phys/vehicle_dynamics.hpp"
#include "defense/hybrid_comms.hpp"
#include "defense/onboard.hpp"
#include "defense/policy.hpp"
#include "defense/trust.hpp"
#include "defense/vpd_ada.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace platoon::core {

struct VehicleConfig {
    sim::NodeId id;
    control::Role role = control::Role::kMember;
    std::uint32_t platoon_id = 1;
    sim::NodeId leader_hint;  ///< Known leader (members/joiners).
    phys::VehicleParams vehicle = phys::truck_params();
    phys::VehicleState initial_state;
    std::uint8_t lane = 0;
    control::ControllerType cacc_type = control::ControllerType::kCaccPath;
    control::FallbackPolicy fallback;
    double desired_speed_mps = 25.0;
    sim::SimTime control_period_s = 0.01;
    sim::SimTime beacon_period_s = 0.1;
    security::SecurityPolicy security;
    control::AdmissionControl::Params admission;  ///< Leader only.
    control::JoinerFsm::Params joiner;
    sim::NodeId rsu_hint;  ///< Where to send misbehaviour reports.
};

class PlatoonVehicle {
public:
    PlatoonVehicle(VehicleConfig config, sim::Scheduler& scheduler,
                   net::Network& network, std::uint64_t master_seed);

    PlatoonVehicle(const PlatoonVehicle&) = delete;
    PlatoonVehicle& operator=(const PlatoonVehicle&) = delete;

    /// Registers with the network and starts the periodic loops.
    void start();
    void stop();

    /// --- provisioning (scenario setup) -------------------------------------
    void provision_group_key(crypto::BytesView key);
    void provision_credential(crypto::Credential long_term,
                              crypto::PseudonymPool pseudonyms);
    void set_ca_public_key(crypto::Bytes ca_pub);
    void set_pairwise_key(std::uint32_t peer, crypto::BytesView key);
    /// Scenario-shared cache of receiver-independent verification facts
    /// (see crypto::VerdictCache); non-owning, may be null.
    void set_verdict_cache(crypto::VerdictCache* cache);
    /// Ground-truth resolver for the radar (installed by the Scenario).
    using RadarTargetResolver =
        std::function<const phys::VehicleDynamics*(const PlatoonVehicle&)>;
    void set_radar_target_resolver(RadarTargetResolver resolver) {
        radar_target_resolver_ = std::move(resolver);
    }

    /// --- identity & role ----------------------------------------------------
    [[nodiscard]] sim::NodeId id() const { return config_.id; }
    /// Current on-wire identity (pseudonym subject under kSignature).
    [[nodiscard]] std::uint32_t wire_id() const;
    [[nodiscard]] control::Role role() const { return role_; }
    [[nodiscard]] std::uint32_t platoon_id() const { return platoon_id_; }
    [[nodiscard]] std::uint8_t lane() const { return lane_; }
    [[nodiscard]] bool detached() const { return detached_; }

    /// --- physical state ------------------------------------------------------
    [[nodiscard]] const phys::VehicleDynamics& dynamics() const {
        return dynamics_;
    }
    [[nodiscard]] phys::VehicleDynamics& mutable_dynamics() {
        return dynamics_;
    }
    [[nodiscard]] phys::GpsSensor& gps() { return gps_; }
    [[nodiscard]] phys::RadarSensor& radar() { return radar_; }
    [[nodiscard]] const phys::FuelModel& fuel() const { return fuel_; }

    /// --- control ---------------------------------------------------------
    [[nodiscard]] control::ControllerStack& stack() { return stack_; }
    [[nodiscard]] const control::ControllerStack& stack() const {
        return stack_;
    }
    void set_desired_speed(double v) { desired_speed_mps_ = v; }
    [[nodiscard]] double desired_speed() const { return desired_speed_mps_; }
    /// Beacon-derived topology (what the controller follows), as wire ids.
    /// Both come from the same-platoon peers in ascending wire order, so
    /// they do not depend on the order beacons arrived in:
    ///  - predecessor: the nearest claim ahead in our platoon and lane;
    ///    equal distances go to the lowest wire;
    ///  - leader: the last (highest-wire) index-0 claim ahead of us.
    /// Only fresh, trusted claims count; see refresh_topology().
    [[nodiscard]] std::optional<std::uint32_t> current_predecessor() const {
        return predecessor_wire_;
    }
    [[nodiscard]] std::optional<std::uint32_t> current_leader() const {
        return leader_wire_;
    }

    /// --- platoon management -------------------------------------------------
    [[nodiscard]] control::Membership* membership() {
        return membership_ ? &*membership_ : nullptr;
    }
    [[nodiscard]] control::AdmissionControl& admission() { return admission_; }
    [[nodiscard]] control::JoinerFsm& joiner() { return joiner_; }
    /// Free vehicle asks `leader` to join platoon `platoon_id`.
    void request_join(std::uint32_t platoon_id, sim::NodeId leader);
    /// Member asks the leader to leave.
    void request_leave();
    /// Asks an RSU for the platoon group key (kKeyRequest; the reply is
    /// unwrapped with the active credential's ECDH key).
    void request_group_key();
    /// Leader sends a maneuver to the platoon (used by examples/tests).
    void send_maneuver(const net::ManeuverMsg& msg);

    /// --- corridor maneuvers (scenario-driven) -------------------------------
    /// These model the *outcome* of a negotiated corridor event (merge,
    /// cut-in, RSU handoff along the road); the message-level join/split
    /// protocols above remain the on-wire path. Topology re-derives from
    /// beacons, so adopting a platoon simply re-homes the identity and lets
    /// refresh_topology() find the new predecessor/leader.
    void adopt_platoon(std::uint32_t platoon_id, sim::NodeId leader_hint);
    void set_lane(std::uint8_t lane) { lane_ = lane; }
    void set_rsu_hint(sim::NodeId rsu) { config_.rsu_hint = rsu; }
    [[nodiscard]] sim::NodeId rsu_hint() const { return config_.rsu_hint; }

    /// --- security state ----------------------------------------------------
    [[nodiscard]] crypto::MessageProtection& protection() {
        return protection_;
    }
    [[nodiscard]] security::SecurityCounters& counters() { return counters_; }
    [[nodiscard]] const security::SecurityCounters& counters() const {
        return counters_;
    }
    [[nodiscard]] security::VpdAdaDetector& vpd() { return vpd_; }
    [[nodiscard]] const security::VpdAdaDetector& vpd() const { return vpd_; }
    [[nodiscard]] security::HybridComms& hybrid() { return hybrid_; }
    [[nodiscard]] security::GpsFusion& gps_fusion() { return gps_fusion_; }
    [[nodiscard]] security::RadarFusion& radar_fusion() { return radar_fusion_; }
    [[nodiscard]] security::OnboardHardening& hardening() { return hardening_; }
    [[nodiscard]] security::TrustManager& trust() { return trust_; }
    [[nodiscard]] const security::TrustManager& trust() const { return trust_; }
    [[nodiscard]] const security::SecurityPolicy& policy() const {
        return config_.security;
    }
    [[nodiscard]] std::uint64_t impersonation_self_echoes() const {
        return self_echoes_;
    }
    /// Beacons whose kinematics jumped implausibly between consecutive
    /// claims from the same sender (two transmitters sharing an identity,
    /// or crude FDI). Checked when the control-algorithm defense is on.
    [[nodiscard]] std::uint64_t plausibility_flags() const {
        return plausibility_flags_;
    }

    /// --- compromise hooks (malware / FDI insider) ---------------------------
    using BeaconMutator = std::function<void(net::Beacon&)>;
    void set_beacon_mutator(BeaconMutator mutator) {
        beacon_mutator_ = std::move(mutator);
    }
    void clear_beacon_mutator() { beacon_mutator_ = nullptr; }
    void set_drop_beacons(bool drop) { drop_beacons_ = drop; }
    [[nodiscard]] bool compromised() const {
        return beacon_mutator_ != nullptr || drop_beacons_;
    }

    /// --- benign fault hooks (src/fault) -------------------------------------
    /// Unlike the compromise hooks above these model *failures*, not
    /// adversaries: a crashed/rebooting OBU, a dirty radar, a drifting
    /// oscillator. They deliberately do not touch `compromised()` -- a
    /// faulty vehicle is still honest, which is exactly what makes benign
    /// faults a false-positive stressor for the detectors.
    /// OBU down: no beacons, no control messages, and received frames are
    /// discarded at the radio (the vehicle keeps driving on its fallback).
    void set_comms_down(bool down) { comms_down_ = down; }
    [[nodiscard]] bool comms_down() const { return comms_down_; }
    /// Sensor dropout: GPS fusion and radar reads are skipped; the control
    /// loop keeps using the last fused position and loses the radar gap.
    void set_sensor_dropout(bool dropout) { sensor_dropout_ = dropout; }
    [[nodiscard]] bool sensor_dropout() const { return sensor_dropout_; }
    /// Clock skew: beacon/message generation timestamps read
    /// now + offset + rate * (now - anchor) instead of scheduler time.
    /// Receive-side freshness checks still use true local time, so a peer
    /// with a drifting clock looks increasingly stale/early to others.
    void set_clock_skew(sim::SimTime anchor, double offset_s, double rate) {
        clock_skew_active_ = true;
        clock_skew_anchor_ = anchor;
        clock_skew_offset_s_ = offset_s;
        clock_skew_rate_ = rate;
    }
    void clear_clock_skew() { clock_skew_active_ = false; }
    [[nodiscard]] bool clock_skew_active() const { return clock_skew_active_; }

    /// --- detection instrumentation (oracle side, src/detect) ----------------
    /// Ground-truth taint stamped onto every beacon this vehicle transmits
    /// while its output is corrupted (malware FDI payload, locked-on GPS
    /// spoof). Set/cleared by the attack that corrupts the stream; carried
    /// on net::Frame::truth, invisible to receivers' protocol logic.
    void set_beacon_truth(net::GroundTruth truth) { beacon_truth_ = truth; }
    void clear_beacon_truth() { beacon_truth_ = net::GroundTruth{}; }

    /// One observed message reception, delivered to the (optional) message
    /// observer after the crypto gate and again tagged with whether the
    /// vehicle's defense gates (trust, plausibility) accepted it. Exactly
    /// one of `beacon` / `maneuver` is non-null per observation.
    struct MessageObservation {
        const net::Frame& frame;  ///< As received (wire bytes) + oracle truth.
        const net::RxInfo& rx;
        const net::Beacon* beacon = nullptr;
        const net::ManeuverMsg* maneuver = nullptr;
        bool accepted = true;
    };
    /// Passive tap for the misbehavior-detection harness: sees every beacon
    /// and maneuver that clears the crypto gate. Observers must not mutate
    /// simulation state (they run inside the receive path).
    using MessageObserver =
        std::function<void(const PlatoonVehicle&, const MessageObservation&)>;
    void set_message_observer(MessageObserver observer) {
        message_observer_ = std::move(observer);
    }

    /// Latest fused own-position estimate (what beacons claim).
    [[nodiscard]] double own_position_estimate() const {
        return last_own_position_;
    }
    /// Most recent raw radar measurement (cached at the 100 Hz control rate
    /// so observers never consume sensor-noise randomness themselves).
    [[nodiscard]] std::optional<double> last_radar_gap() const {
        return last_radar_gap_m_;
    }
    [[nodiscard]] std::optional<double> last_radar_closing() const {
        return last_radar_closing_mps_;
    }

    /// Known peers (claims from received beacons), keyed by wire identity.
    struct Peer {
        control::PeerState state;
        std::uint32_t platoon_id = 0;
        std::uint8_t platoon_index = 0;
        std::uint8_t lane = 0;
    };
    [[nodiscard]] const std::unordered_map<std::uint32_t, Peer>& peers() const {
        return peers_;
    }
    [[nodiscard]] std::uint64_t beacons_sent() const { return beacons_sent_; }
    [[nodiscard]] std::uint64_t beacons_received() const {
        return beacons_received_;
    }

private:
    void control_step();
    void send_beacon();
    void rotate_pseudonym();
    void on_frame(const net::Frame& frame, const net::RxInfo& info);
    void process_payload(const net::Frame& frame, const net::RxInfo& info);
    void handle_beacon(const net::Beacon& beacon, const net::RxInfo& info,
                       const net::Frame& frame);
    void handle_maneuver(const net::ManeuverMsg& msg);
    void handle_keymgmt(const net::KeyMgmtMsg& msg,
                        const crypto::Envelope& envelope);
    void handle_maneuver_as_leader(const net::ManeuverMsg& msg);
    void handle_maneuver_as_member(const net::ManeuverMsg& msg);
    void send_typed(net::MsgType type, crypto::BytesView payload);
    void report_misbehavior(std::uint32_t suspect);
    /// Derives (predecessor, leader) peer data for the controller.
    void refresh_topology(double own_position, sim::SimTime now);
    void prune_peers(sim::SimTime now);
    /// Recomputes platoon_peers_ from peers_ (platoon id changes, prune
    /// sweeps).
    void rebuild_peer_index();
    /// Adds or drops one upserted peer so platoon_peers_ stays in sync.
    void index_peer(std::uint32_t wire, const Peer& peer);
    [[nodiscard]] std::optional<double> beacon_gap(double own_position) const;
    /// Timestamp this vehicle *writes* into outgoing messages: scheduler
    /// time unless a clock-skew fault is active.
    [[nodiscard]] sim::SimTime stamped_now() const;

    VehicleConfig config_;
    sim::Scheduler& scheduler_;
    net::Network& network_;
    sim::RandomStream rng_;

    phys::VehicleDynamics dynamics_;
    phys::GpsSensor gps_;
    phys::RadarSensor radar_;
    phys::OdometrySensor odometry_;
    phys::FuelModel fuel_;

    control::ControllerStack stack_;
    control::SpeedController leader_controller_;
    control::AccController approach_controller_;
    control::Role role_;
    std::uint32_t platoon_id_;
    std::uint8_t lane_;
    double desired_speed_mps_;
    bool detached_ = false;  ///< Split/dissolve: permanently out of CACC.
    std::optional<control::Membership> membership_;
    control::AdmissionControl admission_;
    control::JoinerFsm joiner_;
    sim::NodeId join_leader_;        ///< Leader we asked to join.
    std::uint32_t join_platoon_ = 0;
    std::uint32_t join_tail_wire_ = sim::NodeId::kInvalidValue;
    std::optional<double> spacing_override_;
    sim::SimTime spacing_override_until_ = -1.0;
    std::optional<std::uint32_t> gap_open_predecessor_;
    sim::SimTime gap_open_ignore_until_ = -1.0;

    crypto::MessageProtection protection_;
    crypto::PseudonymPool pseudonyms_;
    std::optional<crypto::Credential> active_credential_;
    security::SecurityCounters counters_;
    security::VpdAdaDetector vpd_;
    security::HybridComms hybrid_;
    security::GpsFusion gps_fusion_;
    security::RadarFusion radar_fusion_;
    security::OnboardHardening hardening_;
    security::TrustManager trust_;

    RadarTargetResolver radar_target_resolver_;
    BeaconMutator beacon_mutator_;
    bool drop_beacons_ = false;
    bool comms_down_ = false;        ///< Benign fault: OBU crashed.
    bool sensor_dropout_ = false;    ///< Benign fault: GPS+radar stale.
    bool clock_skew_active_ = false; ///< Benign fault: oscillator drift.
    sim::SimTime clock_skew_anchor_ = 0.0;
    double clock_skew_offset_s_ = 0.0;
    double clock_skew_rate_ = 0.0;
    net::GroundTruth beacon_truth_;
    MessageObserver message_observer_;
    std::optional<double> last_radar_gap_m_;
    std::optional<double> last_radar_closing_mps_;

    std::unordered_map<std::uint32_t, Peer> peers_;
    /// Conservative lower bound on every peer's received_at; prune_peers
    /// skips its full-table sweep while nothing can have expired.
    sim::SimTime peers_min_received_ = std::numeric_limits<double>::infinity();
    /// The peers_ entries of our own platoon, in ascending wire order: at
    /// corridor scale peers_ holds every node in radio range, but only
    /// these can pass the topology filters. References into peers_ stay
    /// valid across rehashes; prune sweeps, the only erase, rebuild this.
    struct PeerRef {
        std::uint32_t wire = 0;
        const Peer* peer = nullptr;
    };
    std::vector<PeerRef> platoon_peers_;
    std::optional<std::uint32_t> predecessor_wire_;
    std::optional<std::uint32_t> leader_wire_;
    std::unordered_set<std::uint64_t> vlc_forwarded_;

    sim::EventHandle control_timer_;
    sim::EventHandle beacon_timer_;
    sim::EventHandle pseudonym_timer_;
    bool running_ = false;

    std::uint32_t wire_id_ = sim::NodeId::kInvalidValue;
    double last_own_position_ = 0.0;  ///< Last fused position estimate.

    std::uint64_t beacons_sent_ = 0;
    std::uint64_t beacons_received_ = 0;
    std::uint64_t self_echoes_ = 0;
    std::uint64_t plausibility_flags_ = 0;
    sim::SimTime last_report_at_ = -1e18;
    sim::SimTime vpd_last_evidence_ = -1.0;  ///< Last beacon fed to VPD.
};

}  // namespace platoon::core
