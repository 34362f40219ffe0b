// Rogue RSU (paper Section VI-A.2: "RSUs are still susceptible to damage,
// failure and attack... The open challenge with them is identifying and
// removing faulty RSUs").
//
// The attacker stands up a fake roadside unit that abuses the trust
// vehicles place in infrastructure:
//   - poisoned CRL broadcasts that "revoke" honest platoon members
//     (revocation-as-DoS: a vehicle that believes the CRL drops its
//     neighbours' messages), and/or
//   - a bogus group key offered to joiners (key-substitution: a vehicle
//     keyed by the rogue can no longer talk to the platoon).
//
// The defense is the PKI chain: vehicles in signature mode only accept
// key-management messages from holders of TA-issued credentials, which a
// rogue RSU by definition lacks.
#pragma once

#include <memory>

#include "crypto/secured_message.hpp"
#include "security/attacks/attack.hpp"

namespace platoon::security {

class RogueRsuAttack final : public Attack {
public:
    struct Params {
        AttackWindow window{20.0};
        double position_m = 2600.0;      ///< Fixed roadside post.
        bool poison_crl = true;          ///< Broadcast fake revocations.
        bool offer_bogus_group_key = true;
        sim::SimTime broadcast_period_s = 1.0;
        /// How many honest platoon members each poisoned CRL "revokes".
        std::size_t victims_per_crl = 4;
    };

    RogueRsuAttack() : RogueRsuAttack(Params{}) {}
    explicit RogueRsuAttack(Params params) : params_(params) {}

    void attach(core::Scenario& scenario) override;
    [[nodiscard]] core::AttackKind kind() const override {
        // The paper files infrastructure abuse under impersonation
        // (pretending to be a trusted entity).
        return core::AttackKind::kImpersonation;
    }
    void collect(core::MetricMap& out) const override;

    [[nodiscard]] std::uint64_t broadcasts() const { return broadcasts_; }

private:
    void broadcast_poison();

    Params params_;
    std::unique_ptr<AttackerRadio> radio_;
    core::Scenario* scenario_ = nullptr;
    sim::EventHandle inject_handle_;
    crypto::MessageProtection protection_;  ///< No TA credential!
    std::uint64_t broadcasts_ = 0;
};

}  // namespace platoon::security
