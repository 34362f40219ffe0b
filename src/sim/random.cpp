#include "sim/random.hpp"

#include <cmath>

#include "sim/assert.hpp"

namespace platoon::sim {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

constexpr StreamDecl kStreamManifest[] = {
#define PLATOON_STREAM(name, owner, doc) {name, owner, false},
#define PLATOON_STREAM_PREFIX(prefix, owner, doc) {prefix, owner, true},
#include "sim/streams.def"
#undef PLATOON_STREAM
#undef PLATOON_STREAM_PREFIX
};
}  // namespace

std::span<const StreamDecl> declared_streams() { return kStreamManifest; }

bool stream_declared(std::string_view name) {
    for (const StreamDecl& d : kStreamManifest) {
        if (!d.is_prefix) {
            if (name == d.name) return true;
            continue;
        }
        if (name.substr(0, d.name.size()) == d.name) return true;
        // "vehicle" is the prefix family "vehicle." minus the dot.
        if (name == d.name.substr(0, d.name.size() - 1)) return true;
    }
    return false;
}

Xoshiro256::Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
}

std::uint64_t Xoshiro256::next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

RandomStream::RandomStream(std::uint64_t master_seed, std::string_view name)
    : engine_(SplitMix64(master_seed ^ fnv1a(name)).next()) {}

std::uint64_t RandomStream::bits() {
    ++draws_;
    return engine_.next();
}

double RandomStream::uniform() {
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(bits() >> 11) * 0x1.0p-53;
}

double RandomStream::uniform(double lo, double hi) {
    PLATOON_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
}

std::uint64_t RandomStream::uniform_int(std::uint64_t n) {
    PLATOON_EXPECTS(n > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~0ull - (~0ull % n);
    std::uint64_t x;
    do {
        x = bits();
    } while (x >= limit);
    return x % n;
}

double RandomStream::normal() {
    if (have_cached_normal_) {
        have_cached_normal_ = false;
        return cached_normal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    have_cached_normal_ = true;
    return r * std::cos(theta);
}

double RandomStream::normal(double mean, double stddev) {
    PLATOON_EXPECTS(stddev >= 0.0);
    return mean + stddev * normal();
}

double RandomStream::exponential(double lambda) {
    PLATOON_EXPECTS(lambda > 0.0);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
}

bool RandomStream::chance(double p) {
    PLATOON_EXPECTS(p >= 0.0 && p <= 1.0);
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
}

double RandomStream::gamma(double shape, double scale) {
    PLATOON_EXPECTS(shape > 0.0 && scale > 0.0);
    // Marsaglia & Tsang method; boost small shapes via the u^(1/k) trick.
    if (shape < 1.0) {
        const double u = std::max(uniform(), 1e-300);
        return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x, v;
        do {
            x = normal();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
        if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
            return d * v * scale;
    }
}

double RandomStream::nakagami_power(double m) {
    PLATOON_EXPECTS(m >= 0.5);
    // Power gain of Nakagami-m amplitude fading with E[gain] = 1.
    return gamma(m, 1.0 / m);
}

}  // namespace platoon::sim
