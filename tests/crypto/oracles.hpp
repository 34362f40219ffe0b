// Slow, obviously correct references that the crypto fast paths are tested
// against: bit-serial double-and-add point multiplication, Shamir's trick,
// and reduction by binary long division. Tests only; the library never
// calls them.
#pragma once

#include "crypto/eddsa.hpp"
#include "crypto/u256.hpp"

namespace platoon::crypto::oracle {

/// k*P by double-and-add over the bits of k, most significant first.
[[nodiscard]] Point scalar_mul(const U256& k, const Point& p);

/// a*A + b*B via Shamir's trick: one shared doubling chain, adding A, B or
/// A + B at each bit.
[[nodiscard]] Point double_scalar_mul(const U256& a, const Point& A,
                                      const U256& b, const Point& B);

/// x mod m (m != 0) via binary long division: one shift-subtract step per
/// bit of x.
[[nodiscard]] U256 mod(const U512& x, const U256& m);
[[nodiscard]] U256 mod(const U256& x, const U256& m);

/// (a * b) mod m by long division of the full product.
[[nodiscard]] U256 mul_mod(const U256& a, const U256& b, const U256& m);

}  // namespace platoon::crypto::oracle
