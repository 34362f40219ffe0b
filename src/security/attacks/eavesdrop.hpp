// Eavesdropping attack (paper Section V-C, Table II): a passive listener
// parked by the roadside (or tailing the platoon) records everything. The
// attack's yield is measured, not assumed:
//  - how many beacons were heard and how many *decoded* (encryption stops
//    decoding, not hearing),
//  - how many distinct identities could be tracked and for how long
//    (pseudonym rotation shortens linkable trajectories),
//  - how accurately a victim's trajectory was reconstructed.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "security/attacks/attack.hpp"

namespace platoon::security {

class EavesdropAttack final : public Attack {
public:
    struct Params {
        AttackWindow window{0.0};
        bool mobile = false;      ///< Tail the platoon vs. roadside post.
        double post_position_m = 2500.0;
    };

    EavesdropAttack() : EavesdropAttack(Params{}) {}
    explicit EavesdropAttack(Params params) : params_(params) {}

    void attach(core::Scenario& scenario) override;
    [[nodiscard]] core::AttackKind kind() const override {
        return core::AttackKind::kEavesdropping;
    }
    void collect(core::MetricMap& out) const override;

    [[nodiscard]] std::uint64_t frames_heard() const { return heard_; }
    [[nodiscard]] std::uint64_t beacons_decoded() const { return decoded_; }
    /// Longest continuously-linkable trajectory (one wire identity), seconds.
    [[nodiscard]] double longest_track_s() const;
    /// Mean absolute error between claimed and true positions for frames
    /// attributed to platoon vehicles (requires ground truth = simulator).
    [[nodiscard]] double tracking_error_m() const;

private:
    Params params_;
    std::unique_ptr<AttackerRadio> radio_;
    core::Scenario* scenario_ = nullptr;
    std::uint64_t heard_ = 0;
    std::uint64_t decoded_ = 0;
    std::uint64_t payload_bytes_captured_ = 0;

    struct Track {
        sim::SimTime first = 0.0;
        sim::SimTime last = 0.0;
        std::size_t points = 0;
    };
    std::map<std::uint32_t, Track> tracks_;
    double abs_error_sum_ = 0.0;
    std::size_t error_samples_ = 0;
};

}  // namespace platoon::security
