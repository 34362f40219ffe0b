#include "crypto/u256.hpp"

#include <bit>
#include <stdexcept>

#include "base/assert.hpp"

namespace platoon::crypto {

using u128 = unsigned __int128;

int U256::top_bit() const {
    for (int word = 3; word >= 0; --word) {
        if (w[static_cast<std::size_t>(word)] != 0) {
            return word * 64 + 63 -
                   std::countl_zero(w[static_cast<std::size_t>(word)]);
        }
    }
    return -1;
}

Bytes U256::to_le_bytes() const {
    Bytes out(32);
    for (int i = 0; i < 32; ++i)
        out[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(w[static_cast<std::size_t>(i) / 8] >>
                                      (8 * (i % 8)));
    return out;
}

U256 U256::from_le_bytes(BytesView b) {
    PLATOON_EXPECTS(b.size() <= 32);
    U256 out;
    for (std::size_t i = 0; i < b.size(); ++i)
        out.w[i / 8] |= static_cast<std::uint64_t>(b[i]) << (8 * (i % 8));
    return out;
}

U256 U256::from_hex(std::string_view hex_be) {
    if (hex_be.size() > 64) throw std::invalid_argument("hex too long");
    // Left-pad to full width, then reverse into little-endian bytes.
    std::string padded(64 - hex_be.size(), '0');
    padded.append(hex_be);
    const Bytes be = ::platoon::crypto::from_hex(padded);
    Bytes le(be.rbegin(), be.rend());
    return from_le_bytes(le);
}

std::string U256::to_hex() const {
    const Bytes le = to_le_bytes();
    const Bytes be(le.rbegin(), le.rend());
    return ::platoon::crypto::to_hex(be);
}

std::strong_ordering cmp(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i) {
        const auto ai = a.w[static_cast<std::size_t>(i)];
        const auto bi = b.w[static_cast<std::size_t>(i)];
        if (ai != bi) return ai < bi ? std::strong_ordering::less
                                     : std::strong_ordering::greater;
    }
    return std::strong_ordering::equal;
}

U256 add(const U256& a, const U256& b, bool& carry_out) {
    U256 r;
    u128 carry = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        const u128 sum = static_cast<u128>(a.w[i]) + b.w[i] + carry;
        r.w[i] = static_cast<std::uint64_t>(sum);
        carry = sum >> 64;
    }
    carry_out = carry != 0;
    return r;
}

U256 sub(const U256& a, const U256& b, bool& borrow_out) {
    U256 r;
    u128 borrow = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        const u128 diff =
            static_cast<u128>(a.w[i]) - b.w[i] - borrow;
        r.w[i] = static_cast<std::uint64_t>(diff);
        borrow = (diff >> 64) & 1;
    }
    borrow_out = borrow != 0;
    return r;
}

U512 mul_wide(const U256& a, const U256& b) {
    U512 r;
    for (std::size_t i = 0; i < 4; ++i) {
        u128 carry = 0;
        for (std::size_t j = 0; j < 4; ++j) {
            const u128 cur = static_cast<u128>(a.w[i]) * b.w[j] +
                             r.w[i + j] + carry;
            r.w[i + j] = static_cast<std::uint64_t>(cur);
            carry = cur >> 64;
        }
        r.w[i + 4] = static_cast<std::uint64_t>(carry);
    }
    return r;
}

namespace {

/// floor(2^512 / L), the Barrett constant for kGroupOrder (261 bits).
constexpr std::array<std::uint64_t, 5> kBarrettMu = {
    0xed9ce5a30a2c131bull, 0x2106215d086329a7ull, 0xffffffffffffffebull,
    0xffffffffffffffffull, 0xfull};

}  // namespace

U256 mod_l(const U512& x) {
    // q = ((x >> 192) * mu) >> 320. It undershoots floor(x / L) by at most
    // one: mu's floor loses frac(2^512 / L) ~ 0.225 of a quotient unit and
    // dropping the low 192 bits of x less than 2^-60. So x - q*L lies in
    // [0, 2L), below 2^254, and its low four words are the whole value.
    std::array<std::uint64_t, 10> q1mu{};
    for (std::size_t i = 0; i < 5; ++i) {
        u128 carry = 0;
        for (std::size_t j = 0; j < 5; ++j) {
            const u128 cur = static_cast<u128>(x.w[i + 3]) * kBarrettMu[j] +
                             q1mu[i + j] + carry;
            q1mu[i + j] = static_cast<std::uint64_t>(cur);
            carry = cur >> 64;
        }
        q1mu[i + 5] = static_cast<std::uint64_t>(carry);
    }
    U256 qL;  // q * L mod 2^256; q is q1mu[5..9]
    for (std::size_t i = 0; i < 4; ++i) {
        u128 carry = 0;
        for (std::size_t j = 0; i + j < 4; ++j) {
            const u128 cur = static_cast<u128>(q1mu[i + 5]) *
                                 kGroupOrder.w[j] +
                             qL.w[i + j] + carry;
            qL.w[i + j] = static_cast<std::uint64_t>(cur);
            carry = cur >> 64;
        }
    }
    U256 low;
    for (std::size_t i = 0; i < 4; ++i) low.w[i] = x.w[i];
    bool borrow;
    U256 r = sub(low, qL, borrow);  // exact modulo 2^256
    if (cmp(r, kGroupOrder) != std::strong_ordering::less)
        r = sub(r, kGroupOrder, borrow);
    PLATOON_ENSURES(cmp(r, kGroupOrder) == std::strong_ordering::less);
    return r;
}

U256 mod_l(const U256& x) {
    // q = floor(x / 2^252) overestimates floor(x / L) by at most one, so
    // x - q*L lies in (-L, L): add L back once when it went negative.
    const std::uint64_t q = x.w[3] >> 60;
    U256 qL;
    u128 carry = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        const u128 cur = static_cast<u128>(kGroupOrder.w[i]) * q + carry;
        qL.w[i] = static_cast<std::uint64_t>(cur);
        carry = cur >> 64;
    }
    bool borrow;
    U256 r = sub(x, qL, borrow);
    if (borrow) {
        bool ignored;
        r = add(r, kGroupOrder, ignored);
    }
    return r;
}

U256 mul_mod_l(const U256& a, const U256& b) { return mod_l(mul_wide(a, b)); }

U256 add_mod(const U256& a, const U256& b, const U256& m) {
    PLATOON_EXPECTS(cmp(a, m) == std::strong_ordering::less);
    PLATOON_EXPECTS(cmp(b, m) == std::strong_ordering::less);
    bool carry;
    U256 r = add(a, b, carry);
    if (carry || cmp(r, m) != std::strong_ordering::less) {
        bool borrow;
        r = sub(r, m, borrow);
    }
    return r;
}

U256 sub_mod(const U256& a, const U256& b, const U256& m) {
    PLATOON_EXPECTS(cmp(a, m) == std::strong_ordering::less);
    PLATOON_EXPECTS(cmp(b, m) == std::strong_ordering::less);
    bool borrow;
    U256 r = sub(a, b, borrow);
    if (borrow) {
        bool carry;
        r = add(r, m, carry);
    }
    return r;
}

}  // namespace platoon::crypto
