// Jamming attack (paper Section V-B, Table II): raise the RF noise floor on
// the platoon's frequencies. Beacons stop decoding, CACC starves and the
// platoon degrades to radar ACC ("disbands" in the paper's terms: all
// platooning gains are lost). The hybrid-communication defense keeps the
// platoon alive over VLC.
#pragma once

#include <memory>

#include "security/attacks/attack.hpp"

namespace platoon::security {

class JammingAttack final : public Attack {
public:
    struct Params {
        AttackWindow window{20.0};
        double power_dbm = 40.0;   ///< High-power wideband noise source.
        double duty_cycle = 1.0;   ///< 1.0 = continuous jammer.
        bool mobile = true;        ///< Drives along with the platoon.
        bool jam_cv2x_too = false; ///< Wideband: also hit the C-V2X band.
    };

    JammingAttack() : JammingAttack(Params{}) {}
    explicit JammingAttack(Params params) : params_(params) {}

    void attach(core::Scenario& scenario) override;
    [[nodiscard]] core::AttackKind kind() const override {
        return core::AttackKind::kJamming;
    }
    void collect(core::MetricMap& out) const override;

private:
    Params params_;
    core::Scenario* scenario_ = nullptr;
    std::vector<int> jammer_ids_;
};

}  // namespace platoon::security
