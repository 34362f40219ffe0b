// Deterministic, splittable random-number generation.
//
// Every stochastic component in the simulator (channel fading, MAC backoff,
// sensor noise, attacker timing, ...) draws from its own named RandomStream,
// derived from the scenario master seed via SplitMix64 over a hash of the
// stream name. Runs are therefore reproducible bit-for-bit for a given master
// seed, and adding a new consumer of randomness does not perturb the draws
// seen by existing consumers.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace platoon::sim {

/// One entry of the stream manifest (src/sim/streams.def). Stream names are
/// cross-TU contracts: the seed derivation hashes the name, so a rename
/// re-rolls every draw the stream feeds. The manifest pins the names and
/// platoonlint's stream-registry rule enforces it lexically.
struct StreamDecl {
    std::string_view name;   ///< exact name, or dotted prefix ending in '.'
    std::string_view owner;  ///< the one file allowed to spell the name
    bool is_prefix;          ///< true for PLATOON_STREAM_PREFIX entries
};

/// The declared stream set, in manifest order.
[[nodiscard]] std::span<const StreamDecl> declared_streams();

/// True when `name` is declared: an exact entry, a prefix entry that
/// `name` extends, or a prefix entry minus its trailing dot.
[[nodiscard]] bool stream_declared(std::string_view name);

/// SplitMix64's finaliser: a bijective 64-bit mixer. It is also the keyed
/// hash behind net::Channel's fading, whose draws depend only on their
/// inputs, never on the order in which they are asked for.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/// SplitMix64: used for seeding / stream derivation (public-domain algorithm
/// by Sebastiano Vigna).
class SplitMix64 {
public:
    constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    constexpr std::uint64_t next() {
        return mix64(state_ += 0x9E3779B97F4A7C15ull);
    }

private:
    std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna, public domain): the workhorse PRNG.
class Xoshiro256 {
public:
    explicit Xoshiro256(std::uint64_t seed);

    std::uint64_t next();

private:
    std::uint64_t s_[4];
};

/// A named random stream with the distributions the simulator needs.
class RandomStream {
public:
    /// Derives the stream seed from `master_seed` and the FNV-1a hash of
    /// `name`, so streams with distinct names are statistically independent.
    RandomStream(std::uint64_t master_seed, std::string_view name);

    /// Uniform in [0, 1).
    double uniform();
    /// Uniform in [lo, hi).
    double uniform(double lo, double hi);
    /// Uniform integer in [0, n) ; n > 0.
    std::uint64_t uniform_int(std::uint64_t n);
    /// Standard normal via Box-Muller (cached pair).
    double normal();
    /// Normal with given mean and standard deviation.
    double normal(double mean, double stddev);
    /// Exponential with given rate lambda (> 0).
    double exponential(double lambda);
    /// Bernoulli trial with probability p in [0, 1].
    bool chance(double p);
    /// Gamma(shape k > 0, scale theta > 0) via Marsaglia-Tsang.
    double gamma(double shape, double scale);
    /// Nakagami-m distributed power gain with unit mean (m >= 0.5).
    /// (If X ~ Nakagami-m amplitude, X^2 ~ Gamma(m, 1/m); we return X^2,
    /// i.e. the power gain, which is what a channel model multiplies.)
    double nakagami_power(double m);
    /// Raw 64 random bits.
    std::uint64_t bits();

    [[nodiscard]] std::uint64_t draws() const { return draws_; }

private:
    Xoshiro256 engine_;
    double cached_normal_ = 0.0;
    bool have_cached_normal_ = false;
    std::uint64_t draws_ = 0;
};

/// FNV-1a 64-bit hash (exposed for tests and for stable stream naming).
[[nodiscard]] std::uint64_t fnv1a(std::string_view s);

}  // namespace platoon::sim
