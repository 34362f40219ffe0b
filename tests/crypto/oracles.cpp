#include "oracles.hpp"

#include <algorithm>

#include "base/assert.hpp"

namespace platoon::crypto::oracle {

Point scalar_mul(const U256& k, const Point& p) {
    Point result = Point::identity();
    for (int i = k.top_bit(); i >= 0; --i) {
        result = point_double(result);
        if (k.bit(i)) result = point_add(result, p);
    }
    return result;
}

Point double_scalar_mul(const U256& a, const Point& A, const U256& b,
                        const Point& B) {
    const Point sum = point_add(A, B);
    Point r = Point::identity();
    for (int i = std::max(a.top_bit(), b.top_bit()); i >= 0; --i) {
        r = point_double(r);
        const bool bit_a = a.bit(i);
        const bool bit_b = b.bit(i);
        if (bit_a && bit_b) {
            r = point_add(r, sum);
        } else if (bit_a) {
            r = point_add(r, A);
        } else if (bit_b) {
            r = point_add(r, B);
        }
    }
    return r;
}

namespace {

bool bit(const U512& x, int i) {
    return (x.w[static_cast<std::size_t>(i) / 64] >> (i % 64)) & 1u;
}

/// Index of the highest set bit, or -1 for zero.
int top_bit(const U512& x) {
    for (int i = 511; i >= 0; --i)
        if (bit(x, i)) return i;
    return -1;
}

/// x = 2x + in_bit, dropping the carry out of the top word (the caller
/// accounts for it).
void shl1(U256& x, bool in_bit) {
    std::uint64_t carry = in_bit ? 1u : 0u;
    for (std::size_t i = 0; i < 4; ++i) {
        const std::uint64_t next = x.w[i] >> 63;
        x.w[i] = (x.w[i] << 1) | carry;
        carry = next;
    }
}

}  // namespace

U256 mod(const U512& x, const U256& m) {
    PLATOON_EXPECTS(!m.is_zero());
    U256 rem;
    for (int i = top_bit(x); i >= 0; --i) {
        // rem < m, so 2 rem + 1 < 2^257: when the shift carries out of the
        // top word, the true remainder is rem + 2^256 > m, and one
        // subtraction of m (mod 2^256) absorbs the lost carry.
        const bool top_set = (rem.w[3] >> 63) != 0;
        shl1(rem, bit(x, i));
        bool borrow;
        if (top_set) rem = sub(rem, m, borrow);
        if (cmp(rem, m) != std::strong_ordering::less) {
            rem = sub(rem, m, borrow);
            PLATOON_ASSERT(!borrow);
        }
    }
    return rem;
}

U256 mod(const U256& x, const U256& m) {
    U512 wide;
    for (std::size_t i = 0; i < 4; ++i) wide.w[i] = x.w[i];
    return mod(wide, m);
}

U256 mul_mod(const U256& a, const U256& b, const U256& m) {
    return mod(mul_wide(a, b), m);
}

}  // namespace platoon::crypto::oracle
