#include "core/scenario.hpp"

#include <algorithm>

#include "crypto/fading_key_agreement.hpp"
#include "sim/assert.hpp"
#include "sim/logging.hpp"

namespace platoon::core {

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)),
      network_(std::make_unique<net::Network>(scheduler_, config_.network,
                                              config_.seed)),
      metrics_(config_.metrics),
      scenario_rng_(config_.seed, "scenario") {
    PLATOON_EXPECTS(config_.platoon_size >= 2);

    crypto::Bytes ta_seed;
    crypto::append_u64(ta_seed, config_.seed);
    crypto::append(ta_seed, crypto::to_bytes("trusted-authority"));
    authority_ = std::make_unique<rsu::TrustedAuthority>(
        crypto::BytesView(ta_seed));

    // Shared verification fast path: one fact cache for every receiver in
    // this scenario (per-scenario state keeps parallel seed sweeps
    // bit-identical), plus a network-level prewarm hook that batch-verifies
    // signed fan-outs into it before delivery.
    if (config_.share_verify_verdicts) {
        verdict_cache_ = std::make_unique<crypto::VerdictCache>();
        network_->set_verify_prewarm(
            [cache = verdict_cache_.get(),
             ca_pub = authority_->public_key()](
                const crypto::Envelope& envelope, sim::RandomStream& rng) {
                crypto::prewarm_signature_verdicts(
                    envelope, crypto::BytesView(ca_pub), *cache,
                    [&rng] { return rng.bits(); });
            });
    }

    // Group key (generated lazily but deterministically).
    if (config_.security.auth_mode == crypto::AuthMode::kGroupMac ||
        config_.security.encrypt_payloads) {
        group_key_.resize(32);
        for (auto& b : group_key_)
            b = static_cast<std::uint8_t>(scenario_rng_.bits());
    }

    // --- platoon -----------------------------------------------------------
    const double length = phys::truck_params().length_m;
    std::vector<const PlatoonVehicle*> watched;
    for (std::size_t i = 0; i < config_.platoon_size; ++i) {
        VehicleConfig vc;
        vc.id = platoon_node(i);
        vc.role = i == 0 ? control::Role::kLeader : control::Role::kMember;
        vc.platoon_id = platoon_id();
        vc.leader_hint = platoon_node(0);
        vc.initial_state.position_m =
            config_.leader_start_m -
            static_cast<double>(i) * (config_.initial_gap_m + length);
        vc.initial_state.speed_mps = config_.initial_speed_mps;
        vc.cacc_type = config_.controller;
        vc.desired_speed_mps = config_.initial_speed_mps;
        vc.control_period_s = config_.control_period_s;
        vc.beacon_period_s = config_.beacon_period_s;
        vc.security = config_.security;
        vc.admission = config_.admission;
        if (!rsus_.empty()) vc.rsu_hint = rsus_.front()->id();

        auto vehicle = std::make_unique<PlatoonVehicle>(vc, scheduler_,
                                                        *network_, config_.seed);
        provision(*vehicle, vc.security);
        install_radar_resolver(*vehicle);
        vehicles_.push_back(std::move(vehicle));
    }

    if (config_.security.auth_mode == crypto::AuthMode::kGroupMac &&
        config_.security.key_establishment ==
            security::KeyEstablishment::kFadingChannel) {
        establish_pairwise_keys();
    }

    // --- extra corridor platoons -------------------------------------------
    // Built after the primary platoon and its key establishment, so extra
    // platoons never shift the primary platoon's random draws.
    platoon_spans_.emplace_back(0, config_.platoon_size);
    build_extra_platoons();

    // --- RSUs ----------------------------------------------------------------
    for (std::size_t i = 0; i < config_.rsu_count; ++i) {
        const sim::NodeId rsu_id{1000u + static_cast<std::uint32_t>(i)};
        rsu::RsuNode::Params rp;
        // RSUs line the road ahead of the platoon's starting point so the
        // convoy drives through their coverage during the run.
        rp.position_m = config_.leader_start_m + 200.0 +
                        static_cast<double>(i) * config_.rsu_spacing_m;
        rp.require_signatures = config_.rsus_require_signatures;
        auto node = std::make_unique<rsu::RsuNode>(rsu_id, rp, scheduler_,
                                                   *network_, *authority_);
        node->set_credential(
            authority_->enroll(rsu_id, scheduler_.now()).long_term);
        node->set_verdict_cache(verdict_cache_.get());
        if (!group_key_.empty()) node->set_group_key(group_key_);
        node->start();
        rsus_.push_back(std::move(node));
    }
    // Vehicles report to the first RSU when present (hint set post hoc is
    // not possible through config; reports are broadcast anyway).

    // The pre-formed platoon is already admitted: seed the leader's
    // membership with every initial member.
    if (auto* membership = vehicles_.front()->membership()) {
        for (std::size_t i = 1; i < config_.platoon_size; ++i)
            membership->append(platoon_node(i));
    }

    // --- start everything ----------------------------------------------------
    // Metrics watch the primary platoon only: golden Table II/III numbers
    // stay comparable across corridor densities, and the extra platoons act
    // as channel load + maneuver traffic, not as scored subjects.
    for (std::size_t i = 0; i < vehicles_.size(); ++i) {
        vehicles_[i]->start();
        if (i < config_.platoon_size) watched.push_back(vehicles_[i].get());
    }
    metrics_.watch(std::move(watched));

    // --- benign faults -------------------------------------------------------
    // Built after the vehicles exist (hooks capture stable pointers; the
    // vehicles_ vector only grows and owns by unique_ptr). An empty plan
    // skips construction entirely, so fault-free scenarios are bit-identical
    // to the pre-fault codebase.
    if (!config_.faults.empty()) {
        std::vector<fault::VehicleHooks> hooks;
        hooks.reserve(config_.platoon_size);
        for (std::size_t i = 0; i < config_.platoon_size; ++i) {
            PlatoonVehicle* v = vehicles_[i].get();
            fault::VehicleHooks h;
            h.set_comms_down = [v](bool down) { v->set_comms_down(down); };
            h.set_sensor_dropout = [v](bool on) { v->set_sensor_dropout(on); };
            h.set_clock_skew = [v](sim::SimTime anchor, double offset,
                                   double rate) {
                v->set_clock_skew(anchor, offset, rate);
            };
            hooks.push_back(std::move(h));
        }
        fault_injector_ = std::make_unique<fault::Injector>(
            scheduler_, *network_, config_.faults, std::move(hooks),
            config_.seed);
    }

    // Leader speed profile.
    for (const SpeedStep& step : config_.speed_profile) {
        PlatoonVehicle* leader = vehicles_.front().get();
        scheduler_.schedule_at(step.at, [leader, speed = step.speed_mps] {
            leader->set_desired_speed(speed);
        });
    }

    // Corridor events (merge / split / cut-in / RSU handoff).
    for (const CorridorEvent& event : config_.corridor) {
        PLATOON_EXPECTS(event.platoon < platoon_spans_.size());
        if (event.kind == CorridorEvent::Kind::kSplit ||
            event.kind == CorridorEvent::Kind::kCutIn) {
            PLATOON_EXPECTS(event.index < platoon_spans_[event.platoon].second);
        }
        scheduler_.schedule_at(
            event.at, [this, event] { apply_corridor_event(event); });
    }

    // Metrics sampling.
    scheduler_.schedule_every(config_.metrics.sample_period_s,
                              config_.metrics.sample_period_s,
                              [this] { metrics_.sample(scheduler_.now()); });
}

void Scenario::build_extra_platoons() {
    const double length = phys::truck_params().length_m;
    for (std::size_t p = 0; p < config_.extra_platoons.size(); ++p) {
        const PlatoonSpec& spec = config_.extra_platoons[p];
        PLATOON_EXPECTS(spec.size >= 2 && spec.size < 100);
        const std::size_t platoon = p + 1;
        const std::uint32_t pid =
            platoon_id() + static_cast<std::uint32_t>(platoon);
        const double speed = config_.initial_speed_mps + spec.speed_delta_mps;
        platoon_spans_.emplace_back(vehicles_.size(), spec.size);

        for (std::size_t i = 0; i < spec.size; ++i) {
            VehicleConfig vc;
            vc.id = corridor_node(platoon, i);
            vc.role = i == 0 ? control::Role::kLeader : control::Role::kMember;
            vc.platoon_id = pid;
            vc.leader_hint = corridor_node(platoon, 0);
            vc.lane = spec.lane;
            vc.initial_state.position_m =
                config_.leader_start_m + spec.start_offset_m -
                static_cast<double>(i) * (config_.initial_gap_m + length);
            vc.initial_state.speed_mps = speed;
            vc.cacc_type = config_.controller;
            vc.desired_speed_mps = speed;
            vc.control_period_s = config_.control_period_s;
            vc.beacon_period_s = config_.beacon_period_s;
            vc.security = config_.security;
            vc.admission = config_.admission;

            auto vehicle = std::make_unique<PlatoonVehicle>(
                vc, scheduler_, *network_, config_.seed);
            provision(*vehicle, vc.security);
            // Fading-channel key agreement is modelled for the primary
            // platoon only; extra platoons are assumed to have completed
            // theirs before the simulated window (no probe randomness).
            if (!group_key_.empty()) vehicle->provision_group_key(group_key_);
            install_radar_resolver(*vehicle);
            vehicles_.push_back(std::move(vehicle));
        }

        const std::size_t base = platoon_spans_.back().first;
        if (auto* membership = vehicles_[base]->membership()) {
            for (std::size_t i = 1; i < spec.size; ++i)
                membership->append(corridor_node(platoon, i));
        }

        // The extra leader follows the same disturbance profile, shifted by
        // its speed delta, so the whole corridor brakes and re-accelerates.
        PlatoonVehicle* extra_leader = vehicles_[base].get();
        for (const SpeedStep& step : config_.speed_profile) {
            scheduler_.schedule_at(
                step.at,
                [extra_leader, speed = step.speed_mps + spec.speed_delta_mps] {
                    extra_leader->set_desired_speed(speed);
                });
        }
    }
}

void Scenario::apply_corridor_event(const CorridorEvent& event) {
    const auto [base, size] = platoon_spans_[event.platoon];
    switch (event.kind) {
        case CorridorEvent::Kind::kMerge: {
            // The platoon joins the primary platoon's id, lane and leader;
            // CACC topology re-derives from the next beacons, and the
            // primary leader's membership absorbs the merged vehicles.
            if (event.platoon == 0) break;  // primary cannot merge into itself
            auto* membership = vehicles_.front()->membership();
            for (std::size_t i = 0; i < size; ++i) {
                PlatoonVehicle& v = *vehicles_[base + i];
                v.adopt_platoon(platoon_id(), platoon_node(0));
                v.set_lane(0);
                if (membership) membership->append(v.id());
            }
            break;
        }
        case CorridorEvent::Kind::kSplit: {
            // Real on-wire maneuver: the platoon's leader broadcasts a
            // kSplitRequest; everyone at or behind the subject detaches.
            net::ManeuverMsg msg;
            msg.type = net::ManeuverType::kSplitRequest;
            msg.platoon_id = vehicles_[base]->platoon_id();
            msg.sender = vehicles_[base]->wire_id();
            msg.subject = vehicles_[base + event.index]->wire_id();
            vehicles_[base]->send_maneuver(msg);
            break;
        }
        case CorridorEvent::Kind::kCutIn: {
            vehicles_[base + event.index]->set_lane(0);
            break;
        }
        case CorridorEvent::Kind::kRsuHandoff: {
            if (event.index >= rsus_.size()) break;  // no such RSU built
            const sim::NodeId rsu = rsus_[event.index]->id();
            for (std::size_t i = 0; i < size; ++i)
                vehicles_[base + i]->set_rsu_hint(rsu);
            break;
        }
    }
}

std::size_t Scenario::platoon_size(std::size_t platoon) const {
    PLATOON_EXPECTS(platoon < platoon_spans_.size());
    return platoon_spans_[platoon].second;
}

PlatoonVehicle& Scenario::corridor_vehicle(std::size_t platoon,
                                           std::size_t index) {
    PLATOON_EXPECTS(platoon < platoon_spans_.size());
    const auto [base, size] = platoon_spans_[platoon];
    PLATOON_EXPECTS(index < size);
    return *vehicles_[base + index];
}

Scenario::~Scenario() {
    for (auto& r : rsus_) r->stop();
    for (auto& v : vehicles_) v->stop();
}

void Scenario::run_until(sim::SimTime until) { scheduler_.run_until(until); }

PlatoonVehicle& Scenario::vehicle(std::size_t index) {
    PLATOON_EXPECTS(index < vehicles_.size());
    return *vehicles_[index];
}

PlatoonVehicle& Scenario::tail() {
    PLATOON_EXPECTS(!vehicles_.empty());
    return *vehicles_[config_.platoon_size - 1];
}

std::vector<rsu::RsuNode*> Scenario::rsus() {
    std::vector<rsu::RsuNode*> out;
    out.reserve(rsus_.size());
    for (auto& r : rsus_) out.push_back(r.get());
    return out;
}

PlatoonVehicle& Scenario::add_vehicle(VehicleConfig config) {
    auto vehicle = std::make_unique<PlatoonVehicle>(config, scheduler_,
                                                    *network_, config_.seed);
    provision(*vehicle, config.security);
    install_radar_resolver(*vehicle);
    vehicle->start();
    vehicles_.push_back(std::move(vehicle));
    radar_index_stale_ = true;
    return *vehicles_.back();
}

rsu::TrustedAuthority::Enrollment Scenario::enroll(sim::NodeId id) {
    return authority_->enroll(id, scheduler_.now());
}

void Scenario::provision(PlatoonVehicle& vehicle,
                         const security::SecurityPolicy& policy) {
    vehicle.set_ca_public_key(authority_->public_key());
    vehicle.set_verdict_cache(verdict_cache_.get());

    if (policy.auth_mode == crypto::AuthMode::kSignature ||
        policy.pseudonym_rotation_s > 0.0) {
        auto enrollment = authority_->enroll(vehicle.id(), scheduler_.now());
        vehicle.provision_credential(std::move(enrollment.long_term),
                                     std::move(enrollment.pseudonyms));
    }

    const bool needs_group_key =
        policy.auth_mode == crypto::AuthMode::kGroupMac ||
        policy.encrypt_payloads;
    if (needs_group_key &&
        policy.key_establishment == security::KeyEstablishment::kPreShared) {
        if (group_key_.empty()) {
            group_key_.resize(32);
            for (auto& b : group_key_)
                b = static_cast<std::uint8_t>(scenario_rng_.bits());
        }
        vehicle.provision_group_key(group_key_);
    }
    // kFadingChannel handled in establish_pairwise_keys();
    // kRsuDistribution happens at runtime via request_group_key().
}

void Scenario::establish_pairwise_keys() {
    // Li et al. [5]: the leader agrees a secret with each member from the
    // reciprocal fading of their link, then uses those secured channels to
    // share the platoon key. A member whose agreement failed stays unkeyed
    // (its messages will be rejected and it degrades to radar ACC).
    PLATOON_EXPECTS(!vehicles_.empty());
    PLATOON_EXPECTS(!group_key_.empty());
    PlatoonVehicle& leader = *vehicles_.front();
    leader.provision_group_key(group_key_);

    sim::RandomStream noise(config_.seed, "fka.noise");
    constexpr std::size_t kProbes = 512;
    constexpr double kMeasurementNoiseDb = 0.35;
    // One probe at the midpoint of each coherence epoch: fresh fading each.
    const double epoch_s = network_->channel().params().coherence_time_s;

    for (std::size_t i = 1; i < vehicles_.size(); ++i) {
        PlatoonVehicle& member = *vehicles_[i];
        std::vector<double> leader_samples(kProbes), member_samples(kProbes);
        for (std::size_t p = 0; p < kProbes; ++p) {
            const double t =
                -30.0 + (static_cast<double>(p) + 0.5) * epoch_s;
            const double gain = network_->channel().fading_db(
                leader.id(), member.id(), t);
            leader_samples[p] = gain + noise.normal(0.0, kMeasurementNoiseDb);
            member_samples[p] = gain + noise.normal(0.0, kMeasurementNoiseDb);
        }
        const auto result = crypto::agree(leader_samples, member_samples);
        if (result.success) {
            member.provision_group_key(group_key_);
            // Record the pairwise key too (usable for unicast).
            leader.set_pairwise_key(member.id().value, result.key);
            member.set_pairwise_key(leader.id().value, result.key);
        } else {
            PLATOON_LOG_WARN("fading key agreement failed for node %u",
                             member.id().value);
        }
    }
}

void Scenario::install_radar_resolver(PlatoonVehicle& vehicle) {
    vehicle.set_radar_target_resolver(
        [this](const PlatoonVehicle& self) { return radar_target(self); });
}

const phys::VehicleDynamics* Scenario::radar_target(
    const PlatoonVehicle& self) {
    const net::Network::Params& snapshot = config_.network;
    const sim::SimTime now = scheduler_.now();
    if (radar_index_stale_ ||
        now - radar_index_.built_at() > snapshot.spatial_rebuild_period_s) {
        std::vector<net::SpatialIndex::Entry> rears;
        rears.reserve(vehicles_.size());
        for (std::size_t i = 0; i < vehicles_.size(); ++i) {
            const phys::VehicleDynamics& d = vehicles_[i]->dynamics();
            rears.push_back({.x = d.position() - d.length(),
                             .id = vehicles_[i]->id(),
                             .handle = i});
        }
        radar_index_.rebuild(std::move(rears), now);
        radar_index_stale_ = false;
    }

    // Every cached rear bumper is within `slack` of its fresh position, so
    // scanning from (my_pos - 2 - slack) and stopping once a cached rear
    // exceeds my_pos + best_gap + slack evaluates the exact predicate on
    // every vehicle that could win.
    const double slack =
        snapshot.max_node_speed_mps * (now - radar_index_.built_at()) +
        snapshot.spatial_slack_margin_m;
    const double my_pos = self.dynamics().position();
    const PlatoonVehicle* best = nullptr;
    double best_gap = 1e18;
    for (const net::SpatialIndex::Entry& e :
         radar_index_.from(my_pos - 2.0 - slack)) {
        if (best != nullptr && e.x - slack > my_pos + best_gap) break;
        const PlatoonVehicle* other = vehicles_[e.handle].get();
        if (other == &self || other->lane() != self.lane()) continue;
        const double gap = other->dynamics().position() -
                           other->dynamics().length() - my_pos;
        if (gap > -2.0 && gap < best_gap) {
            best_gap = gap;
            best = other;
        }
    }
    return best != nullptr ? &best->dynamics() : nullptr;
}

}  // namespace platoon::core
