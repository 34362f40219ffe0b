// Impersonation attack (paper Section V-F, Table II): the attacker holds a
// STOLEN credential (key + certificate) of a legitimate vehicle -- typically
// the leader -- and speaks with its identity. Unlike Sybil/fake-maneuver,
// this defeats signatures: the messages verify. What stops it is the
// ecosystem: the victim hears "itself" transmitting (self-echo), reports to
// an RSU, the trusted authority revokes the credential, and CRL broadcasts
// propagate the revocation.
#pragma once

#include <memory>

#include "crypto/secured_message.hpp"
#include "security/attacks/attack.hpp"

namespace platoon::security {

class ImpersonationAttack final : public Attack {
public:
    struct Params {
        AttackWindow window{20.0};
        std::size_t victim_index = 0;   ///< Whose identity is stolen.
        /// What the impersonator does with the identity.
        bool send_dissolve = false;     ///< Forged leader dissolve command.
        bool send_beacons = true;       ///< Fake kinematics as the victim.
        double beacon_accel_lie = -2.5;
        sim::SimTime repeat_period_s = 1.0;
    };

    ImpersonationAttack() : ImpersonationAttack(Params{}) {}
    explicit ImpersonationAttack(Params params) : params_(params) {}

    void attach(core::Scenario& scenario) override;
    [[nodiscard]] core::AttackKind kind() const override {
        return core::AttackKind::kImpersonation;
    }
    void collect(core::MetricMap& out) const override;

private:
    void inject();

    Params params_;
    std::unique_ptr<AttackerRadio> radio_;
    core::Scenario* scenario_ = nullptr;
    sim::EventHandle inject_handle_;
    crypto::MessageProtection protection_;  ///< Configured like the victim's.
    std::uint32_t victim_wire_ = sim::NodeId::kInvalidValue;
    std::uint64_t injected_ = 0;
};

}  // namespace platoon::security
