// Radio propagation: log-distance path loss plus reciprocal block fading.
//
// Reciprocity matters twice in this codebase: it is what makes the
// fading-based key agreement of [5]/[9] work (both ends of a link observe
// the same gain, an eavesdropper elsewhere observes an independent one), and
// it keeps the SINR model symmetric. Fading is log-normal in dB, one draw per
// unordered node pair and coherence epoch: a pure function of the channel's
// key, the link and the epoch, so no value depends on which query came first
// or on what else was queried. Far interferers need no draw at all: their
// mean power over the fading stands in for it (mean_rx_power_mw).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sim/types.hpp"

namespace platoon::net {

enum class Band : std::uint8_t {
    kDsrc = 0,  ///< IEEE 802.11p at 5.9 GHz.
    kVlc,       ///< Visible light, line-of-sight to adjacent vehicle.
    kCv2x,      ///< 3GPP C-V2X sidelink (separate RF resource).
};

[[nodiscard]] const char* to_string(Band band);

struct ChannelParams {
    double tx_power_dbm = 20.0;
    double ref_loss_db = 47.86;      ///< Free-space loss at 1 m, 5.9 GHz.
    double path_loss_exponent = 2.2;
    double noise_floor_dbm = -95.0;
    double fading_stddev_db = 4.0;   ///< Small-scale fading sigma (dB).
    double coherence_time_s = 0.05;  ///< Fading block (epoch) length.
    /// An interferer within this distance of a receiver adds its exact faded
    /// power to the SINR; one beyond it adds its mean power over the fading
    /// (mean_rx_power_mw). +inf makes every term exact. The frame's own
    /// signal, carrier sense and jammers are always exact.
    double interference_range_m = 3000.0;
    double carrier_sense_dbm = -85.0;
    double capture_threshold_db = 6.0;  ///< SINR for near-certain reception.
    double per_slope_db = 1.5;          ///< PER sigmoid slope.
    double data_rate_bps = 6'000'000.0;
    double preamble_s = 40e-6;
};

class Channel {
public:
    /// The fading key is one draw of the "channel.fading" stream.
    Channel(ChannelParams params, std::uint64_t master_seed);

    [[nodiscard]] const ChannelParams& params() const { return params_; }

    /// Deterministic path loss (dB) over `distance_m`.
    [[nodiscard]] double path_loss_db(double distance_m) const;

    /// Instantaneous channel gain (dB, negative) between nodes `a` and `b`
    /// at time `t`, including fading. Symmetric in (a, b): gain(a,b,t) ==
    /// gain(b,a,t) exactly (reciprocity).
    [[nodiscard]] double gain_db(sim::NodeId a, sim::NodeId b,
                                 double distance_m, sim::SimTime t) const;

    /// Received power (dBm) for a transmission at `tx_power_dbm`.
    [[nodiscard]] double rx_power_dbm(sim::NodeId from, sim::NodeId to,
                                      double distance_m, sim::SimTime t,
                                      double tx_power_dbm) const;

    /// Mean received power (mW) over the fading of a transmission at
    /// params().tx_power_dbm: the path-loss power times E[10^(X/10)] =
    /// exp((sigma ln10 / 10)^2 / 2) for X ~ N(0, sigma^2) dB, i.e.
    /// 10^((tx_power_dbm - path_loss_db(d)) / 10) times that factor, in one
    /// pow. No fading draw.
    [[nodiscard]] double mean_rx_power_mw(double distance_m) const {
        const double d = std::max(distance_m, 1.0);
        return mean_power_at_1m_mw_ * std::pow(d, -params_.path_loss_exponent);
    }

    /// Airtime of a frame of `bytes` at the configured data rate.
    [[nodiscard]] sim::SimTime airtime(std::size_t bytes) const;

    /// Packet-error rate given SINR: sigmoid centred on the capture
    /// threshold, steeper for short frames.
    [[nodiscard]] double packet_error_rate(double sinr_db,
                                           std::size_t bytes) const;

    /// The fading (dB) of link {a, b} in coherence epoch
    /// floor(t / coherence_time_s): fading_stddev_db times a standard normal
    /// keyed on (channel key, pair_key(a, b), epoch). Equal for every query
    /// inside one epoch, independent across links and epochs. Exposed so the
    /// fading key agreement probes the same reciprocal randomness the
    /// packets experience.
    [[nodiscard]] double fading_db(sim::NodeId a, sim::NodeId b,
                                   sim::SimTime t) const;

    /// Canonical unordered-pair identity of a link.
    struct PairKey {
        std::uint64_t lo = 0;  ///< min(a, b), full width.
        std::uint64_t hi = 0;  ///< max(a, b), full width.
        friend bool operator==(PairKey, PairKey) = default;
    };

    /// Order-insensitive: pair_key(a, b) == pair_key(b, a) (reciprocity).
    [[nodiscard]] static PairKey pair_key(sim::NodeId a, sim::NodeId b);

private:
    ChannelParams params_;
    std::uint64_t fading_key_;
    double mean_power_at_1m_mw_;  ///< mean_rx_power_mw at the 1 m clamp.
};

}  // namespace platoon::net
