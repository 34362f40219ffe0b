// Sybil attack (paper Section V-A.2, Table II): one physical attacker
// fabricates ghost vehicles. Ghost beacons claim positions inside the
// platoon's gaps with hostile kinematics (braking hard), hijacking the
// followers' predecessor selection; ghost join requests clog the leader's
// admission table so real vehicles cannot join. Authentication kills both:
// ghosts cannot produce valid credentials.
#pragma once

#include <memory>
#include <vector>

#include "crypto/secured_message.hpp"
#include "security/attacks/attack.hpp"

namespace platoon::security {

class SybilAttack final : public Attack {
public:
    struct Params {
        AttackWindow window{20.0};
        std::size_t ghosts = 3;
        /// Members whose gaps the ghosts haunt (victim follows the ghost).
        std::size_t first_victim_index = 2;
        double ghost_brake_mps2 = -3.0;   ///< Claimed deceleration.
        double ghost_speed_delta = -2.0;  ///< Claimed speed below victim's.
        sim::SimTime beacon_period_s = 0.1;
        bool send_join_requests = true;
        sim::SimTime join_request_period_s = 2.0;
    };

    SybilAttack() : SybilAttack(Params{}) {}
    explicit SybilAttack(Params params) : params_(params) {}

    void attach(core::Scenario& scenario) override;
    [[nodiscard]] core::AttackKind kind() const override {
        return core::AttackKind::kSybil;
    }
    void collect(core::MetricMap& out) const override;

    [[nodiscard]] std::uint64_t ghost_beacons() const { return beacons_; }

private:
    void emit_ghost_beacons();
    void emit_join_requests();

    Params params_;
    std::unique_ptr<AttackerRadio> radio_;
    core::Scenario* scenario_ = nullptr;
    sim::EventHandle beacon_handle_;
    sim::EventHandle join_handle_;
    crypto::MessageProtection protection_;  ///< kNone: ghosts cannot sign.
    std::uint64_t beacons_ = 0;
    std::uint64_t join_requests_ = 0;
};

}  // namespace platoon::security
