#include "defense/hybrid_comms.hpp"

#include <algorithm>

namespace platoon::security {

HybridComms::HybridComms() : HybridComms(Params{}) {}

HybridComms::Action HybridComms::on_receive(std::uint32_t sender,
                                            std::uint64_t seq,
                                            net::MsgType type, net::Band band,
                                            sim::SimTime now) {
    // Bookkeeping for jam detection.
    if (band == net::Band::kDsrc) {
        last_rf_rx_ = now;
    } else {
        recent_secondary_rx_.push_back(now);
        if (recent_secondary_rx_.size() > 64) {
            recent_secondary_rx_.erase(recent_secondary_rx_.begin(),
                                       recent_secondary_rx_.begin() + 32);
        }
    }

    const Key k = key(sender, seq);
    if (const auto it = delivered_keys_.find(k); it != delivered_keys_.end()) {
        ++duplicates_;
        return Action::kDuplicate;
    }

    bool needs_dual = false;
    if (type == net::MsgType::kManeuver) {
        needs_dual = params_.require_dual_channel_maneuvers;
    } else if (type == net::MsgType::kBeacon) {
        // Key-management frames stay single-channel (RSUs have no VLC
        // emitter); beacons require both channels except under detected
        // RF jamming, when the optical channel alone must suffice.
        needs_dual =
            params_.require_dual_channel_beacons && !rf_jam_suspected(now);
    }
    if (!needs_dual) {
        remember_delivered(k, now);
        ++delivered_;
        return Action::kDeliver;
    }

    const auto pending_it = pending_.find(k);
    if (pending_it == pending_.end()) {
        pending_.emplace(k, PendingEntry{now, band});
        return Action::kHold;
    }
    if (pending_it->second.first_band == band) {
        // Same channel again: still unconfirmed.
        pending_it->second.first_seen = now;
        return Action::kHold;
    }
    // Confirmed on a second, different channel.
    pending_.erase(pending_it);
    remember_delivered(k, now);
    ++delivered_;
    return Action::kDeliver;
}

std::size_t HybridComms::expire(sim::SimTime now) {
    std::size_t expired = 0;
    std::erase_if(pending_, [&](const auto& entry) {
        if (now - entry.second.first_seen > params_.match_window_s) {
            ++expired;
            return true;
        }
        return false;
    });
    rejected_single_channel_ += expired;
    // Also prune the delivered-key memory (anything older than a few match
    // windows can no longer be confused with a live message), oldest first.
    while (delivered_head_ < delivered_order_.size() &&
           now - delivered_order_[delivered_head_].first >
               10.0 * params_.match_window_s) {
        const auto [time, k] = delivered_order_[delivered_head_++];
        // Erase only the delivery this entry recorded.
        const auto it = delivered_keys_.find(k);
        if (it != delivered_keys_.end() && it->second == time)
            delivered_keys_.erase(it);
    }
    // Drop the forgotten prefix once it is at least half the buffer: the
    // entries moved never outnumber those dropped, so pruning stays
    // amortised O(1) per delivery.
    if (delivered_head_ * 2 >= delivered_order_.size()) {
        delivered_order_.erase(
            delivered_order_.begin(),
            delivered_order_.begin() +
                static_cast<std::ptrdiff_t>(delivered_head_));
        delivered_head_ = 0;
    }
    return expired;
}

void HybridComms::remember_delivered(Key k, sim::SimTime now) {
    delivered_keys_.emplace(k, now);
    delivered_order_.emplace_back(now, k);
}

bool HybridComms::rf_jam_suspected(sim::SimTime now) const {
    if (last_rf_rx_ >= 0.0 && now - last_rf_rx_ <= params_.jam_window_s)
        return false;
    const auto fresh = std::count_if(
        recent_secondary_rx_.begin(), recent_secondary_rx_.end(),
        [&](sim::SimTime t) { return now - t <= params_.jam_window_s; });
    return fresh >= static_cast<long>(params_.jam_min_secondary);
}

}  // namespace platoon::security
