#include "security/attacks/fake_maneuver.hpp"

#include <algorithm>

#include "sim/assert.hpp"

namespace platoon::security {

void FakeManeuverAttack::attach(core::Scenario& scenario) {
    PLATOON_EXPECTS(radio_ == nullptr);
    scenario_ = &scenario;

    radio_ = std::make_unique<AttackerRadio>(
        scenario, sim::NodeId{9003},
        track_vehicle(scenario, scenario.config().platoon_size / 2, -5.0));

    // Learn the leader's wire identity from its beacons (index 0 claims).
    radio_->start([this](const net::Frame& frame, const net::RxInfo&) {
        if (frame.type != net::MsgType::kBeacon) return;
        if (frame.envelope.encrypted) return;
        const auto beacon =
            net::Beacon::decode(crypto::BytesView(frame.envelope.payload));
        if (beacon && beacon->platoon_index == 0 &&
            beacon->platoon_id == scenario_->platoon_id()) {
            leader_wire_ = frame.envelope.sender;
        }
    });

    inject_handle_ = scenario.scheduler().schedule_every(
        params_.window.start_s, params_.repeat_period_s, [this] { inject(); });
}

void FakeManeuverAttack::inject() {
    const sim::SimTime now = scenario_->scheduler().now();
    if (!params_.window.active_at(now)) {
        scenario_->scheduler().cancel(inject_handle_);
        return;
    }
    if (leader_wire_ == sim::NodeId::kInvalidValue) {
        // Fall back to the well-known slot id (open networks leak it anyway).
        leader_wire_ = core::Scenario::platoon_node(0).value;
    }

    const std::size_t platoon_size = scenario_->config().platoon_size;
    const auto send = [&](net::ManeuverType type, std::uint32_t subject,
                          double param) {
        net::ManeuverMsg msg;
        msg.type = type;
        msg.platoon_id = scenario_->platoon_id();
        msg.sender = leader_wire_;  // the forgery
        msg.subject = subject;
        msg.param = param;
        net::Frame frame;
        frame.type = net::MsgType::kManeuver;
        frame.envelope = protection_.protect(leader_wire_,
                                             crypto::BytesView(msg.encode()),
                                             now);
        frame.truth = oracle_label(kind(), radio_->id());
        radio_->send(std::move(frame));
        ++injected_;
    };

    switch (params_.variant) {
        case Variant::kGapOpen: {
            // Members open an entrance gap for a vehicle that will never
            // come. The default bursts to everyone at once; a bounded
            // fan-out rotates through the members round-robin instead.
            const std::size_t members = platoon_size - 1;
            const std::size_t fanout =
                params_.targets_per_burst == 0
                    ? members
                    : std::min(params_.targets_per_burst, members);
            for (std::size_t n = 0; n < fanout; ++n) {
                const std::size_t i = 1 + (next_target_ + n) % members;
                send(net::ManeuverType::kGapOpen,
                     scenario_->vehicle(i).wire_id(), params_.gap_open_m);
            }
            next_target_ = (next_target_ + fanout) % members;
            break;
        }
        case Variant::kSplit:
            send(net::ManeuverType::kSplitRequest,
                 scenario_->vehicle(platoon_size / 2).wire_id(), 0.0);
            break;
        case Variant::kDissolve:
            send(net::ManeuverType::kDissolve, 0, 0.0);
            break;
    }
}

void FakeManeuverAttack::collect(core::MetricMap& out) const {
    out["attack.maneuvers_injected"] = static_cast<double>(injected_);
}

}  // namespace platoon::security
