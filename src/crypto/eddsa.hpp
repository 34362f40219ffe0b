// Schnorr signatures and Diffie-Hellman over edwards25519.
//
// Field arithmetic mod p = 2^255 - 19 uses the standard 5x51-bit limb
// representation; points use extended homogeneous coordinates (RFC 8032
// formulas). The signature scheme is deterministic Schnorr with SHA-256 as
// the hash (Ed25519-shaped; functionally equivalent to the ECDSA of IEEE
// 1609.2 for the simulator's purposes: existential unforgeability against
// the simulated attacker, who never holds the private key).
//
// The fast paths follow ref10 (Bernstein et al., "High-speed high-security
// signatures", 2011): a dedicated squaring, inversion by an addition chain,
// table entries stored in cached form (Y+X, Y-X, 2Z, 2dT) -- affine for
// fixed bases -- and doubling chains that skip the T coordinate whenever
// the next operation is another doubling. `fe_pow` stays as the oracle the
// inversion chain is tested against; the double-and-add point oracles live
// with the tests.
//
// Every fixed base has one table shape, a Lim-Lee comb with 8 teeth and
// spacing 32 (FixedBaseComb): the static base-point comb serves keygen,
// signing and the batch equation's base term, and a VerifyingKey holds the
// comb of a signer's negated key -A. verify(VerifyingKey, ...) evaluates
// sB + e(-A) in one joint pass over both combs' 32 columns: 31 shared
// doublings and at most 64 mixed additions. Which path a caller takes
// depends on how often it meets the point:
//  - a signer key verified again and again -- a certificate's CA check, a
//    receiver's message check, the prewarm's single verifications
//    (crypto/secured_message) -- goes through a bounded SignerKeyMemo
//    (crypto/verdict_cache) to its VerifyingKey;
//  - a point used once -- dh_shared_key's peer, the batch equation's terms,
//    batch bisection's single-item leaves -- stays on the 4-bit windowed
//    path. The memo-free verify(bytes, ...) is that path, and the
//    reference the comb paths are tested against.
//
// Scalar arithmetic modulo the group order L uses crypto/u256. None of this
// is constant-time -- it protects a *simulated* network, not real traffic.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/u256.hpp"

namespace platoon::crypto {

/// Field element mod 2^255 - 19, radix-51.
struct Fe {
    std::array<std::uint64_t, 5> limb{};

    static Fe zero() { return {}; }
    static Fe one() {
        Fe r;
        r.limb[0] = 1;
        return r;
    }
    static Fe from_u64(std::uint64_t v) {
        Fe r;
        r.limb[0] = v & ((1ull << 51) - 1);
        r.limb[1] = v >> 51;
        return r;
    }
};

[[nodiscard]] Fe fe_add(const Fe& a, const Fe& b);
[[nodiscard]] Fe fe_sub(const Fe& a, const Fe& b);
[[nodiscard]] Fe fe_mul(const Fe& a, const Fe& b);
/// a^2 from 15 limb products instead of 25; limb-identical to fe_mul(a, a).
[[nodiscard]] Fe fe_sq(const Fe& a);
[[nodiscard]] Fe fe_neg(const Fe& a);
/// a^e by square-and-multiply over the bits of e: fe_sqrt's exponent, and
/// the oracle the addition chain in fe_inv is tested against.
[[nodiscard]] Fe fe_pow(const Fe& a, const U256& e);
/// Multiplicative inverse a^(p-2) by ref10's addition chain (254 squarings,
/// 11 multiplies); a must be nonzero.
[[nodiscard]] Fe fe_inv(const Fe& a);
/// a^((p-3)/8)-based square root; nullopt when a is a non-residue.
[[nodiscard]] std::optional<Fe> fe_sqrt(const Fe& a);
/// Canonical 32-byte little-endian encoding.
[[nodiscard]] Bytes fe_to_bytes(const Fe& a);
[[nodiscard]] Fe fe_from_bytes(BytesView b);  // 32 bytes, top bit ignored
/// Equality and zero tests on canonical limbs; neither allocates.
[[nodiscard]] bool fe_equal(const Fe& a, const Fe& b);
[[nodiscard]] bool fe_is_zero(const Fe& a);

/// Point on edwards25519 in extended homogeneous coordinates
/// (X : Y : Z : T), with x = X/Z, y = Y/Z, T = XY/Z.
struct Point {
    Fe x, y, z, t;

    /// Neutral element (0, 1).
    static Point identity();
};

[[nodiscard]] Point point_add(const Point& p, const Point& q);
[[nodiscard]] Point point_double(const Point& p);
[[nodiscard]] Point point_neg(const Point& p);

/// A point in ref10's affine cached form (ge_precomp, Z = 1): adding it to
/// an extended point takes 7 multiplies.
struct AffineCachedPoint {
    Fe y_plus_x, y_minus_x, xy2d;  ///< (y+x, y-x, 2d*x*y)
};

/// Lim-Lee comb of a fixed point P (Lim & Lee, "More Flexible
/// Exponentiation with Precomputation", CRYPTO '94) with 8 teeth and
/// spacing 32. A 256-bit scalar k is read in 32 columns: the digit of
/// column c (0..31) carries bit 32j + c of k as its bit j, for the teeth
/// j = 0..7. Entry m (1..255) is the sum of 2^(32j) * P over the set bits j
/// of m, so k*P = sum over c of 2^c * entry(digit_c): at most 31 doublings
/// and 32 mixed additions. The 255 entries are affine in cached form,
/// 30.6 KB. Building one costs 224 doublings, 247 additions and a single
/// inversion, shared by every entry (Montgomery's trick).
class FixedBaseComb {
public:
    static constexpr int kTeeth = 8;
    static constexpr int kSpacing = 32;
    static constexpr std::size_t kEntries = (std::size_t{1} << kTeeth) - 1;

    explicit FixedBaseComb(const Point& p);

    /// The entry for a nonzero column digit m.
    [[nodiscard]] const AffineCachedPoint& entry(unsigned m) const {
        return entries_[m - 1];
    }

private:
    std::array<AffineCachedPoint, kEntries> entries_;
};

/// k*P on P's comb.
[[nodiscard]] Point comb_mul(const U256& k, const FixedBaseComb& comb);
/// k*B for the standard base point, on the static base-point comb.
[[nodiscard]] Point scalar_mul_base(const U256& k);
/// k*P via a fixed 4-bit window: the one-term case of multi_scalar_mul.
[[nodiscard]] Point scalar_mul_windowed(const U256& k, const Point& p);
/// Sum of k_i * P_i via Straus interleaving: a 15-entry cached-form table
/// of small multiples per term, then one shared chain of 4 doublings per
/// 4-bit window (the first three without T) with at most one addition per
/// term and window; the workhorse of batch verification.
[[nodiscard]] Point multi_scalar_mul(
    const std::vector<std::pair<U256, Point>>& terms);
[[nodiscard]] bool point_equal(const Point& p, const Point& q);
/// Affine (x, y) as 64 bytes (32 LE bytes each); used as the public-key
/// wire format (uncompressed; the simulator doesn't need point compression).
[[nodiscard]] Bytes point_to_bytes(const Point& p);
[[nodiscard]] std::optional<Point> point_from_bytes(BytesView b);
/// True iff -x^2 + y^2 == 1 + d x^2 y^2.
[[nodiscard]] bool on_curve(const Point& p);

/// The standard base point B and group order L.
[[nodiscard]] const Point& base_point();
[[nodiscard]] const U256& group_order();

/// Key pair. Private keys are scalars mod L derived from a 32-byte seed.
struct KeyPair {
    U256 secret;       ///< scalar in [1, L)
    Point public_key;  ///< secret * B
    Bytes public_bytes;

    static KeyPair from_seed(BytesView seed32);
};

/// 64-byte signature: R (uncompressed would be 64; we store R as the 32-byte
/// challenge hash input via its encoded form) -- concretely: sig = R_bytes
/// (64) || s (32 LE), 96 bytes total.
struct Signature {
    Bytes bytes;  ///< 96 bytes
};

/// Deterministic Schnorr: r = H(secret || msg) mod L, R = rB,
/// e = H(R || pub || msg) mod L, s = r + e*secret mod L.
[[nodiscard]] Signature sign(const KeyPair& key, BytesView msg);

/// Verifies sB == R + e*Pub, as sB + e(-Pub) on the base-point comb and a
/// 4-bit window over -Pub: the memo-free reference path, for keys seen
/// once. The comb path below must return the same verdict for every input.
[[nodiscard]] bool verify(BytesView public_key_bytes, BytesView msg,
                          const Signature& sig);

/// A signer's public key prepared for repeated verification: its exact
/// 64 wire bytes and the comb of its negation -A, always built from them.
class VerifyingKey {
public:
    /// nullopt when the bytes do not decode to a curve point; verify()
    /// rejects every signature under such a key.
    [[nodiscard]] static std::optional<VerifyingKey> from_bytes(
        BytesView public_key_bytes);

    [[nodiscard]] BytesView bytes() const { return bytes_; }

private:
    VerifyingKey(BytesView bytes, const Point& public_key);

    friend bool verify(const VerifyingKey& key, BytesView msg,
                       const Signature& sig);

    std::array<std::uint8_t, 64> bytes_;
    FixedBaseComb neg_comb_;
};

/// verify(key.bytes(), msg, sig), evaluated as sB + e(-A) == R in one
/// joint pass over the base-point comb and the key's comb.
[[nodiscard]] bool verify(const VerifyingKey& key, BytesView msg,
                          const Signature& sig);

/// Diffie-Hellman: SHA-256 of the shared point secret_a * Pub_b. Both sides
/// derive the same 32-byte key.
[[nodiscard]] Bytes dh_shared_key(const U256& my_secret,
                                  BytesView their_public_bytes);

/// --- batch verification ----------------------------------------------------

/// One (public key, message, signature) triple for batch verification. The
/// buffers are owned copies so batches can outlive the envelopes they were
/// collected from.
struct BatchItem {
    Bytes public_key;  ///< 64-byte uncompressed point.
    Bytes msg;
    Signature sig;
};

/// Source of random 64-bit words for the linear-combination coefficients.
/// The crypto layer may not depend on sim, so callers wrap a named
/// sim::RandomStream (e.g. "network.batchverify") in this callback; tests
/// may supply any deterministic source.
using ScalarBits = std::function<std::uint64_t()>;

/// True iff every signature in the batch verifies. Checks the single
/// random-linear-combination equation
///   sum_i z_i * (s_i*B - R_i - e_i*P_i) == identity
/// with independent odd 128-bit coefficients z_i, evaluated as one
/// multi-scalar multiplication. Malformed items (bad point encodings,
/// s >= L) fail the batch outright. An odd z_i < L makes a false accept of
/// a single bad item impossible (z_i annihilates no nonzero point); for
/// several bad items the false-accept probability is ~2^-128 against the
/// simulator's non-adaptive forgers. An empty batch is vacuously true.
[[nodiscard]] bool batch_verify(const std::vector<BatchItem>& items,
                                const ScalarBits& bits);

/// Per-item verdicts, each identical to crypto::verify on that item. Runs
/// the RLC check first; on failure bisects, re-testing each half as a
/// sub-batch, down to plain verify at single items — so a rejected batch
/// pinpoints exactly the forged indices.
[[nodiscard]] std::vector<bool> batch_verify_each(
    const std::vector<BatchItem>& items, const ScalarBits& bits);

}  // namespace platoon::crypto
