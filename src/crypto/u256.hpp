// Fixed-width 256/512-bit unsigned integers with modular arithmetic.
//
// Used for scalar arithmetic modulo the edwards25519 group order L in the
// Schnorr signature scheme. Reductions mod L are word-level (Barrett for a
// 512-bit product, a single quotient digit for a 256-bit hash); the
// bit-serial reduction they are tested against lives with the tests.
#pragma once

#include <array>
#include <compare>
#include <cstdint>

#include "crypto/bytes.hpp"

namespace platoon::crypto {

struct U256 {
    // Little-endian 64-bit words: w[0] is least significant.
    std::array<std::uint64_t, 4> w{};

    constexpr U256() = default;
    constexpr explicit U256(std::uint64_t v) : w{v, 0, 0, 0} {}

    friend constexpr bool operator==(const U256&, const U256&) = default;

    [[nodiscard]] bool is_zero() const {
        return (w[0] | w[1] | w[2] | w[3]) == 0;
    }
    [[nodiscard]] bool bit(int i) const {
        return (w[static_cast<std::size_t>(i) / 64] >> (i % 64)) & 1u;
    }
    /// 4-bit window `i` (bits [4i, 4i+4), i in [0, 64)). Windows are aligned
    /// to nibbles, so they never straddle a 64-bit word boundary.
    [[nodiscard]] unsigned window4(int i) const {
        return static_cast<unsigned>(
                   w[static_cast<std::size_t>(i) / 16] >> ((i % 16) * 4)) &
               0xFu;
    }
    /// Index of the highest set bit, or -1 for zero.
    [[nodiscard]] int top_bit() const;

    /// 32-byte little-endian encoding (the EdDSA convention).
    [[nodiscard]] Bytes to_le_bytes() const;
    static U256 from_le_bytes(BytesView b);  // b.size() <= 32
    static U256 from_hex(std::string_view hex_be);  // big-endian hex
    [[nodiscard]] std::string to_hex() const;        // big-endian hex
};

/// Comparison (unsigned).
[[nodiscard]] std::strong_ordering cmp(const U256& a, const U256& b);

/// a + b, returning the carry-out.
U256 add(const U256& a, const U256& b, bool& carry_out);
/// a - b, returning the borrow-out (true iff a < b).
U256 sub(const U256& a, const U256& b, bool& borrow_out);

struct U512 {
    std::array<std::uint64_t, 8> w{};
};

/// Full 256x256 -> 512-bit product.
[[nodiscard]] U512 mul_wide(const U256& a, const U256& b);

/// The edwards25519 group order
/// L = 2^252 + 27742317777372353535851937790883648493.
inline constexpr U256 kGroupOrder = [] {
    U256 l;
    l.w = {0x5812631a5cf5d3edull, 0x14def9dea2f79cd6ull, 0,
           0x1000000000000000ull};
    return l;
}();

/// x mod L by Barrett reduction over 64-bit words (HAC 14.42, b = 2^64,
/// k = 4): one 5x5-word quotient estimate, one 4-word product, at most one
/// final subtraction of L.
[[nodiscard]] U256 mod_l(const U512& x);
/// x mod L for a 256-bit x: the quotient is x >> 252 (at most 15) up to one
/// fix-up, because L exceeds 2^252 by less than 2^125.
[[nodiscard]] U256 mod_l(const U256& x);
/// (a * b) mod L.
[[nodiscard]] U256 mul_mod_l(const U256& a, const U256& b);

/// (a + b) mod m ; inputs must already be < m.
[[nodiscard]] U256 add_mod(const U256& a, const U256& b, const U256& m);
/// (a - b) mod m ; inputs must already be < m.
[[nodiscard]] U256 sub_mod(const U256& a, const U256& b, const U256& m);

}  // namespace platoon::crypto
