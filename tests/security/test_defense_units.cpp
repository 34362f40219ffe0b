// Unit tests for the defense components: VPD-ADA, hybrid comms, GPS/radar
// fusion, onboard hardening.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "defense/hybrid_comms.hpp"
#include "defense/onboard.hpp"
#include "defense/policy.hpp"
#include "defense/vpd_ada.hpp"
#include "sim/random.hpp"

namespace ps = platoon::security;
namespace pn = platoon::net;
using platoon::sim::RandomStream;

namespace {

TEST(VpdAda, ConsistentDataNeverTriggers) {
    ps::VpdAdaDetector det;
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(det.update(i * 0.01, 5.0 + 0.1 * (i % 3), 5.0, 0.0, 0.1));
    }
    EXPECT_EQ(det.detections(), 0u);
    EXPECT_FALSE(det.quarantined(10.0));
}

TEST(VpdAda, SustainedGapDiscrepancyTriggers) {
    ps::VpdAdaDetector det;
    bool triggered = false;
    for (int i = 0; i < 10; ++i) {
        triggered = det.update(i * 0.01, 5.0, 15.0) || triggered;
    }
    EXPECT_TRUE(triggered);
    EXPECT_EQ(det.detections(), 1u);
    EXPECT_TRUE(det.quarantined(0.1));
    EXPECT_FALSE(det.quarantined(0.1 + 10.0));  // quarantine expires
}

TEST(VpdAda, SpeedDiscrepancyAloneTriggers) {
    ps::VpdAdaDetector det;
    bool triggered = false;
    for (int i = 0; i < 10; ++i) {
        // Gaps agree; claimed closing speed wildly off (replayed dynamics).
        triggered = det.update(i * 0.01, 5.0, 5.0, 0.0, 8.0) || triggered;
    }
    EXPECT_TRUE(triggered);
}

TEST(VpdAda, TransientGlitchDoesNotTrigger) {
    ps::VpdAdaDetector det;
    for (int i = 0; i < 100; ++i) {
        const double beacon_gap = (i % 10 == 0) ? 20.0 : 5.0;  // 1-in-10 glitch
        EXPECT_FALSE(det.update(i * 0.01, 5.0, beacon_gap));
    }
}

TEST(VpdAda, MissingEvidenceIsNeutral) {
    ps::VpdAdaDetector det;
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(det.update(i * 0.01, std::nullopt, 15.0));
        EXPECT_FALSE(det.update(i * 0.01, 5.0, std::nullopt));
    }
    EXPECT_EQ(det.detections(), 0u);
}

TEST(VpdAda, RecordsFirstDetectionTime) {
    ps::VpdAdaDetector det;
    for (int i = 0; i < 20; ++i) det.update(1.0 + i * 0.1, 5.0, 25.0);
    EXPECT_GT(det.first_detection(), 0.0);
    EXPECT_LT(det.first_detection(), 2.0);
}

// ---------------------------------------------------------------------------

TEST(HybridComms, BeaconsNeedBothChannelsInNormalOperation) {
    ps::HybridComms hybrid;
    using A = ps::HybridComms::Action;
    // SP-VLC: a single-channel beacon is held until the twin arrives.
    EXPECT_EQ(hybrid.on_receive(1, 10, pn::MsgType::kBeacon, pn::Band::kDsrc, 0.0),
              A::kHold);
    EXPECT_EQ(hybrid.on_receive(1, 10, pn::MsgType::kBeacon, pn::Band::kVlc, 0.01),
              A::kDeliver);
    // Third copy of the same beacon: duplicate.
    EXPECT_EQ(hybrid.on_receive(1, 10, pn::MsgType::kBeacon, pn::Band::kDsrc, 0.02),
              A::kDuplicate);
}

TEST(HybridComms, VlcOnlyBeaconsPassUnderRfJamming) {
    ps::HybridComms hybrid;
    using A = ps::HybridComms::Action;
    // RF silent while VLC flows: jam suspected -> VLC-only accepted.
    std::uint64_t seq = 100;
    A last = A::kHold;
    for (int i = 0; i < 6; ++i) {
        last = hybrid.on_receive(1, seq++, pn::MsgType::kBeacon,
                                 pn::Band::kVlc, 10.0 + i * 0.5);
    }
    EXPECT_EQ(last, A::kDeliver);
}

TEST(HybridComms, KeyMgmtStaysSingleChannel) {
    ps::HybridComms hybrid;
    EXPECT_EQ(hybrid.on_receive(1000, 1, pn::MsgType::kKeyMgmt,
                                pn::Band::kDsrc, 0.0),
              ps::HybridComms::Action::kDeliver);
}

TEST(HybridComms, ManeuversNeedBothChannels) {
    ps::HybridComms hybrid;
    using A = ps::HybridComms::Action;
    EXPECT_EQ(
        hybrid.on_receive(1, 5, pn::MsgType::kManeuver, pn::Band::kDsrc, 0.0),
        A::kHold);
    // Same channel again: still unconfirmed.
    EXPECT_EQ(
        hybrid.on_receive(1, 5, pn::MsgType::kManeuver, pn::Band::kDsrc, 0.1),
        A::kHold);
    // Second channel: delivered.
    EXPECT_EQ(
        hybrid.on_receive(1, 5, pn::MsgType::kManeuver, pn::Band::kVlc, 0.2),
        A::kDeliver);
    // Late third copy: duplicate.
    EXPECT_EQ(
        hybrid.on_receive(1, 5, pn::MsgType::kManeuver, pn::Band::kDsrc, 0.3),
        A::kDuplicate);
}

TEST(HybridComms, SingleChannelManeuverExpiresAsRejected) {
    ps::HybridComms hybrid;
    hybrid.on_receive(1, 5, pn::MsgType::kManeuver, pn::Band::kDsrc, 0.0);
    EXPECT_EQ(hybrid.expire(1.0), 1u);  // window is 0.5 s
    EXPECT_EQ(hybrid.rejected_single_channel(), 1u);
    // After expiry the same message could try again (fresh hold).
    EXPECT_EQ(
        hybrid.on_receive(1, 5, pn::MsgType::kManeuver, pn::Band::kDsrc, 1.1),
        ps::HybridComms::Action::kHold);
}

TEST(HybridComms, DualChannelNotRequiredWhenDisabled) {
    ps::HybridComms::Params params;
    params.require_dual_channel_maneuvers = false;
    ps::HybridComms hybrid(params);
    EXPECT_EQ(
        hybrid.on_receive(1, 5, pn::MsgType::kManeuver, pn::Band::kDsrc, 0.0),
        ps::HybridComms::Action::kDeliver);
}

TEST(HybridComms, DetectsRfSilenceAsJamming) {
    ps::HybridComms hybrid;
    // VLC alive, RF silent.
    for (int i = 0; i < 5; ++i) {
        hybrid.on_receive(1, static_cast<std::uint64_t>(100 + i),
                          pn::MsgType::kBeacon, pn::Band::kVlc, 10.0 + i * 0.1);
    }
    EXPECT_TRUE(hybrid.rf_jam_suspected(10.5));
    // One RF frame clears the suspicion.
    hybrid.on_receive(1, 200, pn::MsgType::kBeacon, pn::Band::kDsrc, 10.6);
    EXPECT_FALSE(hybrid.rf_jam_suspected(10.7));
}

/// HybridComms as it was when expire() swept every delivered key: the
/// reference for the insertion-ordered pruning.
class SweepHybridComms {
public:
    using Action = ps::HybridComms::Action;

    explicit SweepHybridComms(ps::HybridComms::Params params)
        : params_(params) {}

    Action on_receive(std::uint32_t sender, std::uint64_t seq,
                      pn::MsgType type, pn::Band band, double now) {
        if (band == pn::Band::kDsrc) {
            last_rf_rx_ = now;
        } else {
            recent_secondary_rx_.push_back(now);
            if (recent_secondary_rx_.size() > 64)
                recent_secondary_rx_.erase(recent_secondary_rx_.begin(),
                                           recent_secondary_rx_.begin() + 32);
        }
        const std::uint64_t k = (static_cast<std::uint64_t>(sender) << 40) ^ seq;
        if (delivered_keys_.contains(k)) {
            ++duplicates;
            return Action::kDuplicate;
        }
        bool needs_dual = false;
        if (type == pn::MsgType::kManeuver) {
            needs_dual = params_.require_dual_channel_maneuvers;
        } else if (type == pn::MsgType::kBeacon) {
            needs_dual =
                params_.require_dual_channel_beacons && !rf_jam_suspected(now);
        }
        if (!needs_dual) {
            delivered_keys_.emplace(k, now);
            ++delivered;
            return Action::kDeliver;
        }
        const auto pending_it = pending_.find(k);
        if (pending_it == pending_.end()) {
            pending_.emplace(k, std::pair{now, band});
            return Action::kHold;
        }
        if (pending_it->second.second == band) {
            pending_it->second.first = now;
            return Action::kHold;
        }
        pending_.erase(pending_it);
        delivered_keys_.emplace(k, now);
        ++delivered;
        return Action::kDeliver;
    }

    std::size_t expire(double now) {
        const std::size_t expired = std::erase_if(pending_, [&](const auto& e) {
            return now - e.second.first > params_.match_window_s;
        });
        rejected_single_channel += expired;
        std::erase_if(delivered_keys_, [&](const auto& e) {
            return now - e.second > 10.0 * params_.match_window_s;
        });
        return expired;
    }

    bool rf_jam_suspected(double now) const {
        if (last_rf_rx_ >= 0.0 && now - last_rf_rx_ <= params_.jam_window_s)
            return false;
        const auto fresh = std::count_if(
            recent_secondary_rx_.begin(), recent_secondary_rx_.end(),
            [&](double t) { return now - t <= params_.jam_window_s; });
        return fresh >= static_cast<long>(params_.jam_min_secondary);
    }

    std::uint64_t rejected_single_channel = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t delivered = 0;

private:
    ps::HybridComms::Params params_;
    std::map<std::uint64_t, std::pair<double, pn::Band>> pending_;
    std::map<std::uint64_t, double> delivered_keys_;
    double last_rf_rx_ = -1.0;
    std::vector<double> recent_secondary_rx_;
};

TEST(HybridComms, OrderedPruningMatchesTheFullSweep) {
    // Few senders and sequence numbers over a long horizon, so keys are
    // delivered, duplicated, forgotten and delivered again many times.
    ps::HybridComms::Params short_window;
    short_window.match_window_s = 0.2;
    ps::HybridComms::Params single_channel;
    single_channel.require_dual_channel_beacons = false;
    for (const auto& params :
         {ps::HybridComms::Params{}, short_window, single_channel}) {
        ps::HybridComms hybrid(params);
        SweepHybridComms sweep(params);
        RandomStream rng(157, "hybrid.expire.sequence");
        const pn::MsgType types[] = {pn::MsgType::kBeacon,
                                     pn::MsgType::kManeuver,
                                     pn::MsgType::kKeyMgmt};
        const pn::Band bands[] = {pn::Band::kDsrc, pn::Band::kDsrc,
                                  pn::Band::kVlc, pn::Band::kCv2x};
        double now = 0.0;
        for (int step = 0; step < 20000; ++step) {
            // Steps of 0 to 3/32 s: time never goes back, some steps share
            // a timestamp, and every sum is exact in binary, so some keys
            // sit exactly on the pruning horizon.
            now += static_cast<double>(rng.uniform_int(4)) / 32.0;
            if (rng.bits() % 7 == 0) {
                ASSERT_EQ(hybrid.expire(now), sweep.expire(now)) << step;
                continue;
            }
            const auto sender = static_cast<std::uint32_t>(rng.bits() % 4);
            const std::uint64_t seq = rng.bits() % 40;
            const pn::MsgType type = types[rng.bits() % 3];
            const pn::Band band = bands[rng.bits() % 4];
            ASSERT_EQ(hybrid.on_receive(sender, seq, type, band, now),
                      sweep.on_receive(sender, seq, type, band, now))
                << step;
            ASSERT_EQ(hybrid.rf_jam_suspected(now),
                      sweep.rf_jam_suspected(now))
                << step;
        }
        EXPECT_EQ(hybrid.rejected_single_channel(),
                  sweep.rejected_single_channel);
        EXPECT_EQ(hybrid.duplicates(), sweep.duplicates);
        EXPECT_EQ(hybrid.delivered(), sweep.delivered);
        // The sequence exercised every outcome.
        EXPECT_GT(sweep.rejected_single_channel, 0u);
        EXPECT_GT(sweep.duplicates, 0u);
        EXPECT_GT(sweep.delivered, 0u);
    }
}

// ---------------------------------------------------------------------------

TEST(GpsFusion, TrustsHonestGps) {
    ps::GpsFusion fusion;
    double pos = 0.0;
    for (int i = 0; i < 1000; ++i) {
        pos += 25.0 * 0.01;
        const auto out = fusion.update(i * 0.01, pos + 0.5, 25.0, 0.01);
        EXPECT_TRUE(out.gps_trusted);
    }
    EXPECT_EQ(fusion.detections(), 0u);
}

TEST(GpsFusion, CatchesWalkOff) {
    ps::GpsFusion fusion;
    double pos = 0.0;
    double offset = 0.0;
    bool detected = false;
    for (int i = 0; i < 3000; ++i) {
        pos += 25.0 * 0.01;
        if (i > 500) offset += 2.0 * 0.01;  // 2 m/s walk-off
        const auto out = fusion.update(i * 0.01, pos + offset, 25.0, 0.01);
        detected = detected || out.spoof_detected;
        if (!out.gps_trusted) {
            // Fused position must stay near the truth, not the spoof.
            EXPECT_NEAR(out.position_m, pos, 6.0);
        }
    }
    EXPECT_TRUE(detected);
    EXPECT_GE(fusion.detections(), 1u);
}

TEST(GpsFusion, ServesDeadReckoningWhileDistrusted) {
    ps::GpsFusion fusion;
    fusion.update(0.0, 100.0, 25.0, 0.01);
    // Sudden 50 m jump: immediately outside any gate.
    const auto out = fusion.update(0.01, 150.0, 25.0, 0.01);
    EXPECT_FALSE(out.gps_trusted);
    EXPECT_NEAR(out.position_m, 100.0, 2.0);
}

TEST(RadarFusion, DistrustsLyingRadar) {
    ps::RadarFusion fusion;
    bool distrusted = false;
    for (int i = 0; i < 100; ++i)
        distrusted = fusion.update(i * 0.1, 2.0, 12.0) || distrusted;
    EXPECT_TRUE(distrusted);
    EXPECT_GE(fusion.detections(), 1u);
}

TEST(RadarFusion, PersistsWhileDiscrepancyPersists) {
    ps::RadarFusion fusion;
    for (int i = 0; i < 100; ++i) fusion.update(i * 0.1, 2.0, 12.0);
    // Way past the nominal 5 s hold, still benched.
    EXPECT_TRUE(fusion.update(10.1, 2.0, 12.0));
}

TEST(RadarFusion, AgreementKeepsTrust) {
    ps::RadarFusion fusion;
    for (int i = 0; i < 300; ++i) {
        // Honest traffic with 2.1 m sigma noise on the claimed gap.
        const double noise = 2.1 * ((i * 7919 % 200) / 100.0 - 1.0);
        EXPECT_FALSE(fusion.update(i * 0.1, 12.0, 12.0 + noise));
    }
    EXPECT_EQ(fusion.detections(), 0u);
}

// ---------------------------------------------------------------------------

TEST(Hardening, NoDefensesAlwaysInfects) {
    ps::OnboardHardening bare(ps::OnboardHardening::Params{});
    RandomStream rng(1, "hard");
    EXPECT_TRUE(bare.attempt_infection(
        ps::OnboardHardening::Vector::kWireless, rng));
    EXPECT_TRUE(bare.infected());
}

TEST(Hardening, FirewallBlocksMostWirelessAttempts) {
    ps::OnboardHardening::Params params;
    params.firewall = true;
    params.firewall_block_prob = 0.85;
    RandomStream rng(2, "hard");
    int infected = 0;
    for (int i = 0; i < 1000; ++i) {
        ps::OnboardHardening hardened(params);
        infected +=
            hardened.attempt_infection(ps::OnboardHardening::Vector::kWireless,
                                       rng);
    }
    EXPECT_NEAR(infected / 1000.0, 0.15, 0.04);
}

TEST(Hardening, FirewallCannotBlockPhysicalObdAccess) {
    ps::OnboardHardening::Params params;
    params.firewall = true;
    params.firewall_block_prob = 1.0;
    ps::OnboardHardening hardened(params);
    RandomStream rng(3, "hard");
    EXPECT_TRUE(hardened.attempt_infection(
        ps::OnboardHardening::Vector::kObdPort, rng));
}

TEST(Hardening, AntivirusSchedulesCleanup) {
    ps::OnboardHardening::Params params;
    params.antivirus = true;
    params.antivirus_mean_clean_s = 8.0;
    ps::OnboardHardening hardened(params);
    RandomStream rng(4, "hard");
    ASSERT_TRUE(hardened.attempt_infection(
        ps::OnboardHardening::Vector::kObdPort, rng));
    double sum = 0.0;
    for (int i = 0; i < 2000; ++i) sum += *hardened.cleanup_delay(rng);
    EXPECT_NEAR(sum / 2000.0, 8.0, 1.0);
    hardened.set_cleaned();
    EXPECT_FALSE(hardened.infected());
    EXPECT_FALSE(hardened.cleanup_delay(rng).has_value());
}

TEST(Hardening, NoAntivirusNoCleanup) {
    ps::OnboardHardening bare(ps::OnboardHardening::Params{});
    RandomStream rng(5, "hard");
    bare.attempt_infection(ps::OnboardHardening::Vector::kObdPort, rng);
    EXPECT_FALSE(bare.cleanup_delay(rng).has_value());
}

TEST(SecurityCounters, TalliesByReason) {
    ps::SecurityCounters counters;
    counters.count(platoon::crypto::VerifyResult::kOk);
    counters.count(platoon::crypto::VerifyResult::kBadTag);
    counters.count(platoon::crypto::VerifyResult::kReplay);
    counters.count(platoon::crypto::VerifyResult::kReplay);
    EXPECT_EQ(counters.accepted, 1u);
    EXPECT_EQ(counters.rejected_replay, 2u);
    EXPECT_EQ(counters.rejected_total(), 3u);
}

TEST(SecurityPolicy, HardenedEnablesEverything) {
    const auto policy = ps::SecurityPolicy::hardened();
    EXPECT_EQ(policy.auth_mode, platoon::crypto::AuthMode::kSignature);
    EXPECT_TRUE(policy.encrypt_payloads);
    EXPECT_TRUE(policy.vpd_ada);
    EXPECT_TRUE(policy.hybrid_comms);
    EXPECT_TRUE(policy.sensor_fusion);
    EXPECT_TRUE(policy.firewall);
    EXPECT_TRUE(policy.report_misbehavior);
    const auto open = ps::SecurityPolicy::open();
    EXPECT_EQ(open.auth_mode, platoon::crypto::AuthMode::kNone);
}

}  // namespace
