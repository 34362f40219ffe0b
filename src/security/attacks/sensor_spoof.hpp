// Radar/sensor spoofing & jamming (paper Section V-G, Table II): directly
// attack the victim's forward sensor. Jamming blinds it (laser on camera /
// noise on radar): CACC loses its gap source and must trust beacons alone.
// Spoofing injects a phantom target closing in: the victim brakes hard and
// the disturbance propagates down the string. Sensor fusion (radar-vs-beacon
// cross-check) discards the lying radar.
#pragma once

#include <optional>

#include "security/attacks/attack.hpp"
#include "security/attacks/injection_shape.hpp"

namespace platoon::security {

class SensorSpoofAttack final : public Attack {
public:
    enum class Mode : std::uint8_t {
        kJam,    ///< Blind the radar (no measurement at all).
        kSpoof,  ///< Phantom target at a closing distance.
        kBias,   ///< Additive gap bias shaped by an InjectionShape.
    };

    struct Params {
        AttackWindow window{20.0, 60.0};
        std::size_t victim_index = 3;
        Mode mode = Mode::kSpoof;
        double phantom_gap_m = 2.5;       ///< Claimed gap (dangerously close).
        double phantom_closing_mps = 3.0; ///< Claimed closing speed.
        /// kBias envelope: the radar still tracks the real target, but its
        /// range reads `shape.value_at(...)` meters long -- the stealthy
        /// alternative to replacing the measurement outright.
        std::optional<InjectionShape> shape;
        sim::SimTime update_period_s = 0.1;  ///< kBias envelope refresh.
    };

    SensorSpoofAttack() : SensorSpoofAttack(Params{}) {}
    explicit SensorSpoofAttack(Params params) : params_(params) {}

    void attach(core::Scenario& scenario) override;
    [[nodiscard]] core::AttackKind kind() const override {
        return core::AttackKind::kSensorSpoofing;
    }
    void collect(core::MetricMap& out) const override;

private:
    Params params_;
    core::Scenario* scenario_ = nullptr;
    sim::EventHandle bias_handle_;
    bool active_ = false;
    double bias_m_ = 0.0;
};

}  // namespace platoon::security
