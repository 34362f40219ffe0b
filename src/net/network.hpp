// The wireless network: node registry, CSMA/CA broadcast MAC (802.11p-like),
// SINR-based reception with interference and capture, RF jammers, a VLC
// side-channel and a C-V2X slotted band.
//
// Everything a frame experiences is modelled per receiver: path loss +
// fading (Channel), interference from overlapping transmissions in the same
// band (exact within ChannelParams::interference_range_m of the receiver,
// mean power beyond it), jammer noise, half-duplex deafness while
// transmitting, and a PER-vs-SINR reception draw. Jamming "fills the
// frequencies with random noise" (paper Section V-B) by raising the
// interference floor — which both corrupts receptions and starves the CSMA
// medium.
//
// Delivery scale: reception candidates and VLC neighbor lookups run through
// a sorted-by-x SpatialIndex so each fan-out costs O(nodes nearby) instead
// of O(all registered nodes). The index is a stale snapshot; queries widen
// their window by a slack term so every node that can pass the exact
// per-receiver range check is a candidate. The window is an optimisation,
// never a behaviour: with spatial_slack_margin_m = +inf it holds every node
// and the same code is the all-pairs reference that
// tests/net/test_spatial_delivery.cpp pins it against. In-flight
// Transmissions live in a slab arena (stable slots + free list) so the
// steady-state hot path performs no per-frame container growth or deep
// frame copies.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/secured_message.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "net/spatial_index.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace platoon::net {

/// What the radio carries: a typed security envelope.
struct Frame {
    MsgType type = MsgType::kBeacon;
    crypto::Envelope envelope;
    Band band = Band::kDsrc;
    /// Oracle label (see GroundTruth): not part of the wire bytes, costs no
    /// airtime, and must never influence delivery or protocol decisions.
    GroundTruth truth;

    [[nodiscard]] std::size_t wire_size() const {
        return envelope.wire_size() + 8;  // MAC/PHY header
    }
};

struct RxInfo {
    double sinr_db = 0.0;
    Band band = Band::kDsrc;
    sim::SimTime rx_time = 0.0;
    sim::NodeId physical_sender;  ///< Ground truth (NOT what crypto claims).
};

struct JammerConfig {
    double position_m = 0.0;
    double power_dbm = 33.0;       ///< Effective radiated power.
    Band band = Band::kDsrc;
    double duty_cycle = 1.0;       ///< 1.0 = continuous.
    bool mobile = false;           ///< Follows position_fn when set.
    std::function<double()> position_fn;
};

struct NetworkStats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_per = 0;         ///< Lost to SINR/PER draw.
    std::uint64_t dropped_mac = 0;         ///< CSMA gave up (medium busy).
    std::uint64_t dropped_half_duplex = 0; ///< Receiver was transmitting.
    std::uint64_t dropped_range = 0;
    std::uint64_t dropped_fault = 0;       ///< Benign fault process (src/fault).

    /// Delivery ratio over receivers in range. MAC-starved frames count
    /// once each (they reached nobody); under total starvation this goes
    /// to zero even though per-receiver drops were never evaluated.
    [[nodiscard]] double pdr() const {
        const std::uint64_t attempts = delivered + dropped_per +
                                       dropped_half_duplex + dropped_mac +
                                       dropped_fault;
        return attempts == 0
                   ? 1.0
                   : static_cast<double>(delivered) /
                         static_cast<double>(attempts);
    }
};

class Network {
public:
    struct Params {
        ChannelParams channel;
        double vlc_range_m = 30.0;
        double vlc_loss_prob = 0.02;
        double vlc_latency_s = 0.002;
        double slot_time_s = 13e-6;
        int cw_min = 15;
        double aifs_s = 58e-6;
        int max_mac_attempts = 7;
        double max_range_m = 800.0;

        /// Snapshot refresh cadence. Between rebuilds, queries widen their
        /// window by max_node_speed_mps x snapshot age + the safety margin,
        /// so a longer period trades extra candidates for fewer O(n)
        /// position sweeps. The scenario's radar snapshot uses the same
        /// three values. An infinite margin widens every window to the
        /// whole registry (the test oracle) without changing any result.
        double spatial_rebuild_period_s = 0.05;
        double max_node_speed_mps = 60.0;
        double spatial_slack_margin_m = 10.0;
    };

    using ReceiveHandler = std::function<void(const Frame&, const RxInfo&)>;
    using PositionFn = std::function<double()>;

    /// Physical capabilities of a node beyond "has an RF radio".
    struct NodeTraits {
        /// Participates in the in-lane visible-light chain (has front/rear
        /// optical transceivers and a vehicle body in the lane). RSUs,
        /// roadside listeners and adjacent-lane attackers do not -- VLC is
        /// directional and lane-bound.
        bool vlc = false;
    };

    Network(sim::Scheduler& scheduler, Params params, std::uint64_t seed);

    /// Registers a node. `position` is sampled lazily whenever propagation
    /// needs it; `on_receive` is invoked for every successfully decoded
    /// frame (broadcast medium: every node in range hears everything).
    void register_node(sim::NodeId id, PositionFn position,
                       ReceiveHandler on_receive);
    void register_node(sim::NodeId id, PositionFn position,
                       ReceiveHandler on_receive, NodeTraits traits);
    void unregister_node(sim::NodeId id);
    [[nodiscard]] bool is_registered(sim::NodeId id) const;

    /// Queues a broadcast through the band's MAC.
    void broadcast(sim::NodeId from, Frame frame);

    /// The two nodes a VLC frame from `from` can reach: nearest
    /// optical-chain node ahead and nearest behind (vehicle bodies block
    /// anything further), within the optical range. Either id may be
    /// invalid. Exact ties resolve to the lower NodeId.
    [[nodiscard]] std::pair<sim::NodeId, sim::NodeId> vlc_targets(
        sim::NodeId from);

    /// --- jammers ----------------------------------------------------------
    int add_jammer(JammerConfig config);
    void remove_jammer(int jammer_id);
    [[nodiscard]] std::size_t active_jammers() const { return jammers_.size(); }

    /// --- benign faults ----------------------------------------------------
    /// Loss process installed by fault::Injector: consulted once per
    /// (transmitter, receiver) delivery on the RF bands, after the
    /// half-duplex check and before the SINR/PER draw (VLC is optical and
    /// bypasses it). Returning true drops that delivery and counts it as
    /// dropped_fault. Pass nullptr to uninstall.
    using FaultLossFn = std::function<bool(sim::NodeId from, sim::NodeId to,
                                           Band band, sim::SimTime now)>;
    void set_fault_loss(FaultLossFn fn) { fault_loss_ = std::move(fn); }

    /// --- verification prewarm --------------------------------------------
    /// Hook installed by the scenario layer and invoked once per *signed*
    /// broadcast just before the per-receiver delivery loop (RF bands only;
    /// VLC relays bypass it). It batch-verifies the envelope's receiver-
    /// independent facts into the shared VerdictCache so the fan-out pays
    /// one batched check instead of N individual ones. The named
    /// RandomStream ("network.batchverify") supplies the batch coefficients;
    /// it is drawn from only for signed fan-outs, so unsigned scenarios are
    /// bit-identical with or without the hook. Prewarming affects counters
    /// and cost, never verdicts. Pass nullptr to uninstall.
    using VerifyPrewarmFn =
        std::function<void(const crypto::Envelope&, sim::RandomStream&)>;
    void set_verify_prewarm(VerifyPrewarmFn fn) {
        verify_prewarm_ = std::move(fn);
    }

    /// Contention window for MAC backoff `attempt` (binary exponential,
    /// capped at 2^5 doublings of cw_min+1). The backoff slot count is drawn
    /// uniformly from [0, contention_window(attempt) - 1] -- uniform_int's
    /// upper bound is exclusive, which the MAC-backoff tests pin.
    [[nodiscard]] int contention_window(int attempt) const {
        return (params_.cw_min + 1) << std::min(attempt, 5);
    }

    [[nodiscard]] const NetworkStats& stats() const { return stats_; }
    [[nodiscard]] NetworkStats& mutable_stats() { return stats_; }
    [[nodiscard]] const Channel& channel() const { return channel_; }
    [[nodiscard]] const Params& params() const { return params_; }
    [[nodiscard]] double node_position(sim::NodeId id) const;

private:
    struct Node {
        PositionFn position;
        ReceiveHandler on_receive;
        NodeTraits traits;
        bool transmitting = false;
    };

    struct Transmission {
        sim::NodeId from;
        Frame frame;
        sim::SimTime start;
        sim::SimTime end;
        double tx_position;
    };

    /// Arena slot for an in-flight (or recently finished) Transmission.
    /// Slots are heap-stable: delivery handlers may start new transmissions
    /// (growing the slab) while a reference to the finishing slot's
    /// Transmission is held. The generation guards the finish callback
    /// against slot reuse.
    struct Slot {
        Transmission tx;
        std::uint64_t gen = 0;
        bool live = false;
    };

    void attempt_transmit(sim::NodeId from, Frame frame, int attempt);
    void start_transmission(sim::NodeId from, Frame frame);
    void finish_transmission(std::uint32_t slot, std::uint64_t gen);
    void deliver_vlc(sim::NodeId from, const Frame& frame);
    [[nodiscard]] bool medium_busy(sim::NodeId at, Band band);
    /// Interference terms evaluated each way, tallied over one frame's
    /// fan-out (net.interference.exact / .mean).
    struct InterferenceTally {
        std::uint64_t exact = 0;
        std::uint64_t mean = 0;
    };
    /// Total interference power (mW) at `rx_pos` for `rx` during [start,end],
    /// excluding arena slot `self_slot`: exact faded power from transmitters
    /// within interference_range_m of `rx_pos`, mean power from the rest.
    double interference_mw(sim::NodeId rx, double rx_pos, Band band,
                           sim::SimTime start, sim::SimTime end,
                           std::optional<std::uint32_t> self_slot,
                           InterferenceTally& tally) const;
    double jammer_power_mw(double rx_pos, Band band, sim::NodeId rx,
                           sim::SimTime t);
    void prune_finished(sim::SimTime now);
    [[nodiscard]] std::uint32_t allocate_slot();
    /// Rebuilds the spatial snapshot when the registry changed or the
    /// snapshot aged past spatial_rebuild_period_s.
    void ensure_index();
    /// Window widening that covers node movement since the snapshot.
    [[nodiscard]] double index_slack(sim::SimTime now) const;

    sim::Scheduler& scheduler_;
    Params params_;
    Channel channel_;
    sim::RandomStream rng_;
    sim::RandomStream batch_rng_;  ///< Coefficients for batch verification.
    std::unordered_map<sim::NodeId, Node> nodes_;
    /// Transmission arena: stable slots + LIFO free list. active_slots_
    /// holds live slots in insertion order -- interference sums iterate it,
    /// so the float summation order matches the old growing-vector path.
    std::vector<std::unique_ptr<Slot>> slab_;
    std::vector<std::uint32_t> free_slots_;
    std::vector<std::uint32_t> active_slots_;  // includes recently finished
    SpatialIndex index_;
    bool index_dirty_ = true;
    /// By jammer id: jammer_power_mw sums powers and draws fading in id
    /// order.
    std::map<int, JammerConfig> jammers_;
    int next_jammer_id_ = 1;
    FaultLossFn fault_loss_;
    VerifyPrewarmFn verify_prewarm_;
    NetworkStats stats_;
};

}  // namespace platoon::net
