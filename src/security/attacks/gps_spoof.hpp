// GPS spoofing attack (paper Section V-G, Table II): the attacker captures
// the victim's GPS receiver (overpowered counterfeit constellation) and then
// walks the reported position away at a slow rate -- slow enough to evade a
// naive jump check. The victim's own position estimate, its beacons, and its
// predecessor-selection all inherit the walked-off error; sensor fusion
// (dead reckoning gate) catches the walk and falls back to odometry.
#pragma once

#include <optional>

#include "security/attacks/attack.hpp"
#include "security/attacks/injection_shape.hpp"

namespace platoon::security {

class GpsSpoofAttack final : public Attack {
public:
    struct Params {
        AttackWindow window{20.0};
        std::size_t victim_index = 3;
        double walk_rate_mps = 2.0;   ///< Spoofed-position drift rate.
        double max_offset_m = 120.0;
        sim::SimTime lock_on_delay_s = 2.0;  ///< Capturing the receiver.
        sim::SimTime update_period_s = 0.1;
        /// Detector-aware profile: when set, the offset follows the shaped
        /// envelope (ramp/duty/onset) instead of the legacy monotone walk.
        std::optional<InjectionShape> shape;
    };

    GpsSpoofAttack() : GpsSpoofAttack(Params{}) {}
    explicit GpsSpoofAttack(Params params) : params_(params) {}

    void attach(core::Scenario& scenario) override;
    [[nodiscard]] core::AttackKind kind() const override {
        return core::AttackKind::kSensorSpoofing;
    }
    void collect(core::MetricMap& out) const override;

    [[nodiscard]] double current_offset() const { return offset_m_; }

private:
    Params params_;
    core::Scenario* scenario_ = nullptr;
    sim::EventHandle inject_handle_;
    double offset_m_ = 0.0;
    bool locked_ = false;
};

}  // namespace platoon::security
