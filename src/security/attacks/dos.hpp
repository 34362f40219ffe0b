// Denial-of-service attack (paper Section V-D, Table II): flood the leader
// with join requests under rotating fake identities. The leader's bounded
// pending-admission table fills; legitimate joiners get kDenyPending and
// cannot enter the platoon. Requiring authenticated join requests (fake ids
// cannot sign) or rate-limiting restores availability.
#pragma once

#include <memory>

#include "crypto/secured_message.hpp"
#include "security/attacks/attack.hpp"

namespace platoon::security {

class DosAttack final : public Attack {
public:
    struct Params {
        AttackWindow window{15.0};
        double request_rate_hz = 20.0;
        bool rotate_identities = true;  ///< Fresh fake id per request.
    };

    DosAttack() : DosAttack(Params{}) {}
    explicit DosAttack(Params params) : params_(params) {}

    void attach(core::Scenario& scenario) override;
    [[nodiscard]] core::AttackKind kind() const override {
        return core::AttackKind::kDenialOfService;
    }
    void collect(core::MetricMap& out) const override;

    [[nodiscard]] std::uint64_t requests_sent() const { return requests_; }

private:
    void flood_one();

    Params params_;
    std::unique_ptr<AttackerRadio> radio_;
    core::Scenario* scenario_ = nullptr;
    sim::EventHandle inject_handle_;
    crypto::MessageProtection protection_;
    std::uint32_t next_fake_id_ = 8000;
    std::uint64_t requests_ = 0;
};

}  // namespace platoon::security
