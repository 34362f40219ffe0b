// Replay attack (paper Section V-A.1, Table II): record legitimate platoon
// traffic, re-inject it later. The replayed beacons carry stale kinematics
// ("close the gap" when the leader has since slowed), so unauthenticated
// followers oscillate. Replay guards (timestamps + sequence numbers inside
// the authenticated envelope) neutralise it.
#pragma once

#include <deque>
#include <memory>

#include "security/attacks/attack.hpp"

namespace platoon::security {

class ReplayAttack final : public Attack {
public:
    struct Params {
        AttackWindow window{20.0};
        /// Which platoon slot to record (0 = leader -- the juiciest target:
        /// its beacons steer everyone).
        std::size_t target_index = 0;
        sim::SimTime replay_delay_s = 3.0;  ///< Age of replayed material.
        double replay_rate_hz = 20.0;       ///< Injection rate.
        std::size_t buffer_limit = 512;
        bool replay_maneuvers = true;       ///< Also replay maneuver frames.
    };

    ReplayAttack() : ReplayAttack(Params{}) {}
    explicit ReplayAttack(Params params) : params_(params) {}

    void attach(core::Scenario& scenario) override;
    [[nodiscard]] core::AttackKind kind() const override {
        return core::AttackKind::kReplay;
    }
    void collect(core::MetricMap& out) const override;

    [[nodiscard]] std::uint64_t frames_recorded() const { return recorded_; }
    [[nodiscard]] std::uint64_t frames_replayed() const { return replayed_; }

private:
    void replay_one();

    Params params_;
    std::unique_ptr<AttackerRadio> radio_;
    core::Scenario* scenario_ = nullptr;
    sim::EventHandle inject_handle_;
    std::uint32_t target_wire_ = sim::NodeId::kInvalidValue;
    struct Recorded {
        net::Frame frame;
        sim::SimTime heard_at;
    };
    std::deque<Recorded> buffer_;
    std::size_t next_replay_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t replayed_ = 0;
};

}  // namespace platoon::security
