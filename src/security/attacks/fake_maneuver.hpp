// Fake-maneuver attack (paper Section V-A.3, Table II): forged protocol
// messages with the leader's claimed identity. Variants map to the paper's
// fake entrance (gap-open), fake split, and dissolve. Without message
// authentication the members obey; with it the forgeries fail signature /
// MAC checks.
#pragma once

#include <memory>

#include "crypto/secured_message.hpp"
#include "security/attacks/attack.hpp"

namespace platoon::security {

class FakeManeuverAttack final : public Attack {
public:
    enum class Variant : std::uint8_t {
        kGapOpen,   ///< Fake entrance: members open 30 m gaps for nobody.
        kSplit,     ///< Fake split: rear half detaches.
        kDissolve,  ///< Everyone detaches; the platoon is gone.
    };

    struct Params {
        AttackWindow window{20.0};
        Variant variant = Variant::kGapOpen;
        double gap_open_m = 30.0;
        sim::SimTime repeat_period_s = 5.0;  ///< Keep re-asserting the lie.
        /// kGapOpen fan-out per burst: 0 targets every member at once (the
        /// loud default); a stealthy attacker rotates through N members per
        /// burst to stay under the maneuver-rate flood gate.
        std::size_t targets_per_burst = 0;
    };

    FakeManeuverAttack() : FakeManeuverAttack(Params{}) {}
    explicit FakeManeuverAttack(Params params) : params_(params) {}

    void attach(core::Scenario& scenario) override;
    [[nodiscard]] core::AttackKind kind() const override {
        return core::AttackKind::kFakeManeuver;
    }
    void collect(core::MetricMap& out) const override;

private:
    void inject();

    Params params_;
    std::unique_ptr<AttackerRadio> radio_;
    core::Scenario* scenario_ = nullptr;
    sim::EventHandle inject_handle_;
    crypto::MessageProtection protection_;
    std::uint32_t leader_wire_ = sim::NodeId::kInvalidValue;
    std::uint64_t injected_ = 0;
    std::size_t next_target_ = 0;  ///< kGapOpen round-robin cursor.
};

}  // namespace platoon::security
