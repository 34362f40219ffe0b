// Attack framework: every Table II threat is an Attack that attaches to a
// built Scenario. Attacks are external actors -- they get a radio (a raw
// network node), the ability to schedule events, and whatever the threat
// model grants them (e.g. a stolen credential for impersonation); they never
// reach into defended vehicles except through the explicitly modelled
// compromise hooks (sensors, malware).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/taxonomy.hpp"

namespace platoon::security {

/// When the attack is active.
struct AttackWindow {
    /// Sentinel for "the attack never stops". Any configured stop below the
    /// sentinel is a real stop -- attacks must test via has_stop(), never by
    /// comparing against ad-hoc magic numbers (a historical `< 1e17` check
    /// silently treated stops in [1e17, 1e18) as "never").
    static constexpr sim::SimTime kNeverStops = 1e18;

    sim::SimTime start_s = 20.0;
    sim::SimTime stop_s = kNeverStops;

    /// True when a finite stop time was configured.
    [[nodiscard]] bool has_stop() const { return stop_s < kNeverStops; }

    /// True while `now` lies inside [start_s, stop_s].
    [[nodiscard]] bool active_at(sim::SimTime now) const {
        return now >= start_s && now <= stop_s;
    }
};

/// Lifetime contract: an Attack must be destroyed BEFORE the Scenario it
/// attached to (attacker radios deregister from the scenario's network on
/// destruction). Construct the scenario first, the attack second.
class Attack {
public:
    virtual ~Attack() = default;

    /// Installs the attack into the scenario (schedules its events). Must be
    /// called exactly once, before the scenario runs past `window.start_s`.
    virtual void attach(core::Scenario& scenario) = 0;

    [[nodiscard]] virtual core::AttackKind kind() const = 0;

    /// Merges attack-side outcome metrics (attacker's view) into `out`.
    virtual void collect(core::MetricMap& out) const { (void)out; }
};

/// The attacker's radio: a raw node on the broadcast medium. It can hear
/// everything in range (the medium is open) and transmit arbitrary frames.
class AttackerRadio {
public:
    using ReceiveHandler = net::Network::ReceiveHandler;

    AttackerRadio(core::Scenario& scenario, sim::NodeId id,
                  std::function<double()> position);
    ~AttackerRadio();
    AttackerRadio(const AttackerRadio&) = delete;
    AttackerRadio& operator=(const AttackerRadio&) = delete;

    /// Registers on the medium. `on_receive` may be null (transmit-only).
    void start(ReceiveHandler on_receive);
    void stop();

    void send(net::Frame frame);
    [[nodiscard]] sim::NodeId id() const { return id_; }
    [[nodiscard]] core::Scenario& scenario() { return *scenario_; }
    [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }

private:
    core::Scenario* scenario_;
    sim::NodeId id_;
    std::function<double()> position_;
    bool registered_ = false;
    std::uint64_t frames_sent_ = 0;
};

/// Position helper: track a scenario vehicle with an offset (the attacker
/// drives along with the platoon, e.g. on the adjacent lane).
[[nodiscard]] std::function<double()> track_vehicle(
    core::Scenario& scenario, std::size_t vehicle_index, double offset_m);

/// Ground-truth oracle label for a frame this attack forged, tampered with
/// or replayed. Every attack stamps the frames it injects (and the beacon
/// streams it corrupts) so detection benchmarks can score against truth;
/// the label never reaches protocol logic.
[[nodiscard]] net::GroundTruth oracle_label(core::AttackKind kind,
                                            sim::NodeId attacker);

}  // namespace platoon::security
