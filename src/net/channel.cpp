#include "net/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "sim/assert.hpp"
#include "sim/random.hpp"

namespace platoon::net {

const char* to_string(Band band) {
    switch (band) {
        case Band::kDsrc: return "802.11p";
        case Band::kVlc: return "vlc";
        case Band::kCv2x: return "c-v2x";
    }
    return "?";
}

namespace {
/// E[10^(X/10)] for X ~ N(0, sigma_db^2): the mean linear power factor of
/// log-normal fading, exp(s^2 / 2) with s = sigma_db ln10 / 10.
double mean_fading_factor(double sigma_db) {
    const double s = sigma_db * std::numbers::ln10 / 10.0;
    return std::exp(0.5 * s * s);
}
}  // namespace

Channel::Channel(ChannelParams params, std::uint64_t master_seed)
    : params_(params),
      fading_key_(sim::RandomStream(master_seed, "channel.fading").bits()),
      mean_power_at_1m_mw_(
          std::pow(10.0, (params_.tx_power_dbm - params_.ref_loss_db) / 10.0) *
          mean_fading_factor(params_.fading_stddev_db)) {
    PLATOON_EXPECTS(params_.coherence_time_s > 0.0);
    PLATOON_EXPECTS(params_.data_rate_bps > 0.0);
    PLATOON_EXPECTS(params_.interference_range_m >= 0.0);
}

double Channel::path_loss_db(double distance_m) const {
    const double d = std::max(distance_m, 1.0);
    return params_.ref_loss_db +
           10.0 * params_.path_loss_exponent * std::log10(d);
}

Channel::PairKey Channel::pair_key(sim::NodeId a, sim::NodeId b) {
    const std::uint64_t lo = std::min(a.value, b.value);
    const std::uint64_t hi = std::max(a.value, b.value);
    return PairKey{lo, hi};
}

double Channel::fading_db(sim::NodeId a, sim::NodeId b,
                          sim::SimTime t) const {
    static_assert(std::numeric_limits<decltype(sim::NodeId::value)>::digits ==
                      32,
                  "a link packs both node ids into one 64-bit word");
    const PairKey pair = pair_key(a, b);
    const std::uint64_t link = (pair.lo << 32) | pair.hi;
    const double epoch = std::floor(t / params_.coherence_time_s);
    // Converting a double outside int64's range is undefined (NaN fails too).
    PLATOON_EXPECTS(epoch >= -0x1p63 && epoch < 0x1p63);
    const auto epoch_word =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(epoch));

    // Box-Muller on two 53-bit uniforms from the two mixer outputs of one
    // SplitMix64 sequence seeded by (key, link, epoch); u1 is in (0, 1].
    sim::SplitMix64 words(
        sim::mix64(sim::mix64(fading_key_ ^ link) ^ epoch_word));
    const double u1 = static_cast<double>((words.next() >> 11) + 1) * 0x1.0p-53;
    const double u2 = static_cast<double>(words.next() >> 11) * 0x1.0p-53;
    return params_.fading_stddev_db * std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
}

double Channel::gain_db(sim::NodeId a, sim::NodeId b, double distance_m,
                        sim::SimTime t) const {
    return -path_loss_db(distance_m) + fading_db(a, b, t);
}

double Channel::rx_power_dbm(sim::NodeId from, sim::NodeId to,
                             double distance_m, sim::SimTime t,
                             double tx_power_dbm) const {
    return tx_power_dbm + gain_db(from, to, distance_m, t);
}

sim::SimTime Channel::airtime(std::size_t bytes) const {
    return params_.preamble_s +
           static_cast<double>(bytes) * 8.0 / params_.data_rate_bps;
}

double Channel::packet_error_rate(double sinr_db, std::size_t bytes) const {
    // Sigmoid PER centred on the capture threshold; longer frames shift the
    // curve right (more bits to corrupt) by ~1 dB per 4x length over 100 B.
    const double length_shift =
        std::log2(std::max<double>(static_cast<double>(bytes), 32.0) / 100.0) *
        0.5;
    const double x = (sinr_db - params_.capture_threshold_db - length_shift) /
                     params_.per_slope_db;
    return 1.0 / (1.0 + std::exp(x * 2.0));
}

}  // namespace platoon::net
