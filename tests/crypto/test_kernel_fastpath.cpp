// Each fast path of the signing/verification kernel against its oracle:
//  1. fe_sq against fe_mul(a, a), limb for limb;
//  2. the addition-chain fe_inv against fe_pow(a, p - 2), in canonical bytes;
//  3. the word-level reductions mod L against the bit-serial `mod`;
//  4. the cached-form tables and T-less doubling chains of scalar_mul_base,
//     scalar_mul_windowed and multi_scalar_mul against double-and-add
//     scalar_mul, over edge scalars;
//  5. the 8-tooth comb against double-and-add on every tooth and column,
//     the joint verify pass and the signer memo against the memo-free
//     reference verify, and keygen and signing against pinned bytes;
//  6. the fact-key memo, which must return a fresh key whenever one byte of
//     the payload, tag, certificate, signer key or header fields differs;
//  7. derived MAC/encryption keys, which must follow a replaced key.
#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "crypto/cert.hpp"
#include "crypto/eddsa.hpp"
#include "crypto/secured_message.hpp"
#include "crypto/u256.hpp"
#include "crypto/verdict_cache.hpp"
#include "oracles.hpp"
#include "sim/random.hpp"

namespace pc = platoon::crypto;
namespace oracle = platoon::crypto::oracle;
using platoon::sim::NodeId;
using platoon::sim::RandomStream;

namespace {

constexpr std::uint64_t kMask51 = (1ull << 51) - 1;

pc::Fe fe_of(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
             std::uint64_t l3, std::uint64_t l4) {
    pc::Fe f;
    f.limb = {l0, l1, l2, l3, l4};
    return f;
}

/// Field elements at the edges of the limb representation: 0, 1, p - 1,
/// p (a non-canonical zero), all limbs 2^51 - 1, and outputs of fe_add /
/// fe_sub whose carries just propagated.
std::vector<pc::Fe> edge_field_elements() {
    const pc::Fe zero = pc::Fe::zero();
    const pc::Fe one = pc::Fe::one();
    const pc::Fe p_minus_1 =
        fe_of(kMask51 - 19, kMask51, kMask51, kMask51, kMask51);
    const pc::Fe p = fe_of(kMask51 - 18, kMask51, kMask51, kMask51, kMask51);
    const pc::Fe all_max =
        fe_of(kMask51, kMask51, kMask51, kMask51, kMask51);
    return {
        zero,
        one,
        p_minus_1,
        p,
        all_max,
        fe_of(0, 0, 0, 0, kMask51),
        fe_of(kMask51, 0, 0, 0, 0),
        pc::fe_add(p_minus_1, one),        // carries through every limb
        pc::fe_add(all_max, all_max),
        pc::fe_sub(zero, one),             // borrows via the 2p offset
        pc::fe_sub(one, p_minus_1),
        pc::fe_add(pc::fe_sub(zero, all_max), all_max),
        pc::fe_mul(all_max, all_max),
        pc::fe_neg(p_minus_1),
    };
}

pc::Fe random_fe(RandomStream& rng, int limb_bits) {
    const std::uint64_t mask = (1ull << limb_bits) - 1;
    pc::Fe f;
    for (auto& limb : f.limb) limb = rng.bits() & mask;
    return f;
}

pc::U256 random_u256(RandomStream& rng) {
    pc::U256 x;
    for (auto& w : x.w) w = rng.bits();
    return x;
}

/// p - 2 = 2^255 - 21.
pc::U256 p_minus_2() {
    pc::U256 e;
    e.w = {0xFFFFFFFFFFFFFFEBull, ~0ull, ~0ull, 0x7FFFFFFFFFFFFFFFull};
    return e;
}

// --- 1. fe_sq ---------------------------------------------------------------

TEST(KernelFieldSquare, MatchesMulLimbForLimbOnEdges) {
    for (const pc::Fe& a : edge_field_elements()) {
        EXPECT_EQ(pc::fe_sq(a).limb, pc::fe_mul(a, a).limb);
    }
}

TEST(KernelFieldSquare, MatchesMulLimbForLimbOnRandomInputs) {
    RandomStream rng(151, "kernel.fe_sq");
    // 51-bit limbs (canonical width) and 52-bit ones (what carry_pass
    // leaves in limb 0 and what fe_mul leaves in limb 1).
    for (const int bits : {51, 52}) {
        for (int i = 0; i < 2000; ++i) {
            const pc::Fe a = random_fe(rng, bits);
            ASSERT_EQ(pc::fe_sq(a).limb, pc::fe_mul(a, a).limb) << i;
        }
    }
}

// --- 2. fe_inv --------------------------------------------------------------

TEST(KernelFieldInverse, ChainMatchesFermatPowerInCanonicalBytes) {
    RandomStream rng(152, "kernel.fe_inv");
    std::vector<pc::Fe> inputs;
    for (const pc::Fe& a : edge_field_elements())
        if (!pc::fe_is_zero(a)) inputs.push_back(a);
    for (int i = 0; i < 40; ++i) inputs.push_back(random_fe(rng, 51));
    for (const pc::Fe& a : inputs) {
        const pc::Fe inv = pc::fe_inv(a);
        EXPECT_EQ(pc::fe_to_bytes(inv),
                  pc::fe_to_bytes(pc::fe_pow(a, p_minus_2())));
        EXPECT_TRUE(pc::fe_equal(pc::fe_mul(a, inv), pc::Fe::one()));
    }
}

TEST(KernelFieldInverse, EqualityComparesCanonicalValues) {
    const pc::Fe p = fe_of(kMask51 - 18, kMask51, kMask51, kMask51, kMask51);
    EXPECT_TRUE(pc::fe_is_zero(p));
    EXPECT_TRUE(pc::fe_equal(p, pc::Fe::zero()));
    EXPECT_TRUE(pc::fe_equal(pc::fe_add(p, pc::Fe::one()), pc::Fe::one()));
    EXPECT_FALSE(pc::fe_equal(pc::Fe::one(), pc::Fe::zero()));
    EXPECT_FALSE(pc::fe_is_zero(pc::Fe::one()));
}

// --- 3. reductions mod L ----------------------------------------------------

pc::U512 widen(const pc::U256& x) {
    pc::U512 wide;
    for (std::size_t i = 0; i < 4; ++i) wide.w[i] = x.w[i];
    return wide;
}

std::vector<pc::U512> edge_wide_values() {
    const pc::U256& L = pc::group_order();
    bool flag = false;
    std::vector<pc::U256> narrow = {
        pc::U256(0), pc::U256(1), pc::sub(L, pc::U256(1), flag), L,
        pc::add(L, pc::U256(1), flag)};
    pc::U256 x;
    x.w[3] = 1ull << 60;  // 2^252
    narrow.push_back(x);
    x.w = {~0ull, ~0ull, ~0ull, ~0ull};  // 2^256 - 1
    narrow.push_back(x);
    std::vector<pc::U512> out;
    for (const pc::U256& v : narrow) out.push_back(widen(v));
    pc::U512 max;
    max.w.fill(~0ull);  // 2^512 - 1
    out.push_back(max);
    RandomStream rng(153, "kernel.mod_l.multiples");
    for (int i = 0; i < 20; ++i) {
        const pc::U256 k = random_u256(rng);
        out.push_back(pc::mul_wide(k, L));                 // k*L
        pc::U512 below = pc::mul_wide(k, L);               // k*L - 1
        for (auto& w : below.w)
            if (w-- != 0) break;
        out.push_back(below);
    }
    for (int i = 0; i < 200; ++i) {
        pc::U512 r;
        for (auto& w : r.w) w = rng.bits();
        out.push_back(r);
    }
    return out;
}

TEST(KernelModL, BarrettMatchesBitSerialMod) {
    const pc::U256& L = pc::group_order();
    for (const pc::U512& x : edge_wide_values()) {
        EXPECT_EQ(pc::mod_l(x), oracle::mod(x, L));
    }
}

TEST(KernelModL, NarrowReductionMatchesBitSerialMod) {
    const pc::U256& L = pc::group_order();
    for (const pc::U512& wide : edge_wide_values()) {
        pc::U256 x;
        for (std::size_t i = 0; i < 4; ++i) x.w[i] = wide.w[i];
        EXPECT_EQ(pc::mod_l(x), oracle::mod(x, L)) << x.to_hex();
    }
}

TEST(KernelModL, MulModMatchesGenericMulMod) {
    RandomStream rng(154, "kernel.mul_mod_l");
    const pc::U256& L = pc::group_order();
    for (int i = 0; i < 200; ++i) {
        const pc::U256 a = random_u256(rng);
        const pc::U256 b = random_u256(rng);
        EXPECT_EQ(pc::mul_mod_l(a, b), oracle::mul_mod(a, b, L));
    }
}

// --- 4. point multiplication paths ------------------------------------------

std::vector<pc::U256> edge_scalars() {
    const pc::U256& L = pc::group_order();
    bool flag = false;
    std::vector<pc::U256> ks = {
        pc::U256(0),  pc::U256(1),  pc::U256(2),   pc::U256(3),
        pc::U256(15), pc::U256(16), pc::U256(17),  pc::U256(0xFFFF),
        pc::sub(L, pc::U256(1), flag), L, pc::add(L, pc::U256(1), flag)};
    pc::U256 k;
    k.w[3] = 1ull << 60;  // 2^252: a single top window digit
    ks.push_back(k);
    k.w = {~0ull, ~0ull, ~0ull, ~0ull};  // every window digit 15
    ks.push_back(k);
    k.w.fill(0x8888888888888888ull);  // every digit 8, the mid entry
    ks.push_back(k);
    k.w.fill(0x0F0F0F0F0F0F0F0Full);  // alternating zero windows
    ks.push_back(k);
    k = pc::U256{};
    k.w[1] = 1;  // 2^64
    ks.push_back(k);
    RandomStream rng(155, "kernel.scalars");
    for (int i = 0; i < 6; ++i) ks.push_back(random_u256(rng));
    return ks;
}

std::vector<pc::Point> edge_points() {
    pc::Point order_two;  // (0, -1)
    order_two.x = pc::Fe::zero();
    order_two.y = pc::fe_neg(pc::Fe::one());
    order_two.z = pc::Fe::one();
    order_two.t = pc::Fe::zero();
    // The base point with Z != 1, so projective scaling is exercised.
    const pc::Fe z = pc::Fe::from_u64(7);
    const pc::Point& B = pc::base_point();
    const pc::Point scaled{pc::fe_mul(B.x, z), pc::fe_mul(B.y, z), z,
                           pc::fe_mul(B.t, z)};
    return {B, pc::Point::identity(), order_two, scaled,
            oracle::scalar_mul(pc::U256(123456789), B)};
}

TEST(KernelPointPaths, BaseCombMatchesDoubleAndAdd) {
    for (const pc::U256& k : edge_scalars()) {
        EXPECT_EQ(pc::point_to_bytes(pc::scalar_mul_base(k)),
                  pc::point_to_bytes(oracle::scalar_mul(k, pc::base_point())))
            << k.to_hex();
    }
}

TEST(KernelPointPaths, WindowedMatchesDoubleAndAdd) {
    for (const pc::Point& p : edge_points()) {
        ASSERT_TRUE(pc::on_curve(p));
        for (const pc::U256& k : edge_scalars()) {
            EXPECT_EQ(pc::point_to_bytes(pc::scalar_mul_windowed(k, p)),
                      pc::point_to_bytes(oracle::scalar_mul(k, p)))
                << k.to_hex();
        }
    }
}

TEST(KernelPointPaths, MultiScalarMatchesSumOfDoubleAndAdd) {
    const std::vector<pc::U256> ks = edge_scalars();
    const std::vector<pc::Point> ps = edge_points();
    // Slide a window of three (scalar, point) terms over the edge lists so
    // every scalar meets several points and term counts.
    for (std::size_t start = 0; start < ks.size(); ++start) {
        std::vector<std::pair<pc::U256, pc::Point>> terms;
        pc::Point expected = pc::Point::identity();
        for (std::size_t j = 0; j < 1 + start % 3; ++j) {
            const pc::U256& k = ks[(start + j) % ks.size()];
            const pc::Point& p = ps[(start + j) % ps.size()];
            terms.emplace_back(k, p);
            expected = pc::point_add(expected, oracle::scalar_mul(k, p));
        }
        EXPECT_EQ(pc::point_to_bytes(pc::multi_scalar_mul(terms)),
                  pc::point_to_bytes(expected))
            << start;
    }
}

TEST(KernelPointPaths, DoubleMatchesAddToSelfOnEdgePoints) {
    for (const pc::Point& p : edge_points()) {
        EXPECT_EQ(pc::point_to_bytes(pc::point_double(p)),
                  pc::point_to_bytes(oracle::scalar_mul(pc::U256(2), p)));
        EXPECT_TRUE(pc::point_equal(pc::point_double(p), pc::point_add(p, p)));
    }
}

// --- 5. combs, the joint verify pass and the signer memo --------------------

/// Scalars that pin the comb's tooth and column mapping: the edges, every
/// single bit 2^i (bit 32j + c must land on tooth j of column c), one
/// column with all 8 teeth set, and random values.
std::vector<pc::U256> comb_scalars() {
    const pc::U256& L = pc::group_order();
    bool flag = false;
    std::vector<pc::U256> ks = {pc::U256(0), pc::U256(1), pc::U256(2),
                                pc::sub(L, pc::U256(1), flag)};
    pc::U256 k;
    k.w[3] = 1ull << 60;  // 2^252
    ks.push_back(k);
    k.w[3] = (1ull << 61) - 1;  // 2^253 - 1
    k.w[0] = k.w[1] = k.w[2] = ~0ull;
    ks.push_back(k);
    k.w.fill(~0ull);  // 2^256 - 1: digit 255 in every column
    ks.push_back(k);
    for (int i = 0; i < 256; ++i) {
        k = pc::U256{};
        k.w[static_cast<std::size_t>(i / 64)] = 1ull << (i % 64);
        ks.push_back(k);
    }
    k.w.fill((1ull << 5) | (1ull << 37));  // column 5 alone, all 8 teeth
    ks.push_back(k);
    RandomStream rng(158, "kernel.comb.scalars");
    for (int i = 0; i < 8; ++i) ks.push_back(random_u256(rng));
    return ks;
}

TEST(KernelComb, MatchesDoubleAndAddOnEveryToothAndColumn) {
    const pc::KeyPair signer = pc::KeyPair::from_seed(pc::Bytes(32, 0x41));
    RandomStream rng(159, "kernel.comb.points");
    std::vector<pc::Point> points = edge_points();
    points.push_back(pc::point_neg(signer.public_key));  // -A, as verify uses
    points.push_back(oracle::scalar_mul(
        oracle::mod(random_u256(rng), pc::group_order()), pc::base_point()));
    const std::vector<pc::U256> ks = comb_scalars();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const pc::FixedBaseComb comb(points[i]);
        for (const pc::U256& k : ks) {
            ASSERT_EQ(pc::point_to_bytes(pc::comb_mul(k, comb)),
                      pc::point_to_bytes(oracle::scalar_mul(k, points[i])))
                << "point " << i << " scalar " << k.to_hex();
        }
    }
}

TEST(KernelComb, BaseCombMatchesDoubleAndAddOnEveryToothAndColumn) {
    for (const pc::U256& k : comb_scalars()) {
        ASSERT_EQ(pc::point_to_bytes(pc::scalar_mul_base(k)),
                  pc::point_to_bytes(oracle::scalar_mul(k, pc::base_point())))
            << k.to_hex();
    }
}

/// A signed message and the variants a forger or a corrupt link produces.
struct SignedCase {
    const char* what;
    pc::Bytes public_key;
    pc::Bytes msg;
    pc::Signature sig;
    bool valid;
};

std::vector<SignedCase> signed_cases(const pc::KeyPair& a,
                                     const pc::KeyPair& b, int n) {
    std::vector<SignedCase> out;
    for (int i = 0; i < n; ++i) {
        const pc::Bytes msg = pc::to_bytes("comb case " + std::to_string(i));
        const pc::Signature sig = pc::sign(a, msg);
        out.push_back({"valid", a.public_bytes, msg, sig, true});
        pc::Signature bad_s = sig;
        bad_s.bytes[64 + static_cast<std::size_t>(i) % 31] ^= 0x04;  // s < L
        out.push_back({"s corrupted", a.public_bytes, msg, bad_s, false});
        pc::Signature big_s = sig;
        big_s.bytes[95] = 0xFF;  // s >= L
        out.push_back({"s out of range", a.public_bytes, msg, big_s, false});
        pc::Signature bad_r = sig;
        bad_r.bytes[static_cast<std::size_t>(i) % 64] ^= 0x01;
        out.push_back({"R corrupted", a.public_bytes, msg, bad_r, false});
        // A valid curve point for R, just not this signature's.
        pc::Signature other_r = sig;
        const pc::Bytes r2 = pc::point_to_bytes(
            pc::scalar_mul_base(pc::U256(1000 + static_cast<unsigned>(i))));
        std::copy(r2.begin(), r2.end(), other_r.bytes.begin());
        out.push_back({"R replaced", a.public_bytes, msg, other_r, false});
        pc::Bytes bad_msg = msg;
        bad_msg.back() ^= 0x20;
        out.push_back({"message corrupted", a.public_bytes, bad_msg, sig,
                       false});
        out.push_back({"wrong key", b.public_bytes, msg, sig, false});
    }
    return out;
}

TEST(KernelComb, JointVerifyPassMatchesTheReference) {
    const pc::KeyPair a = pc::KeyPair::from_seed(pc::Bytes(32, 0x42));
    const pc::KeyPair b = pc::KeyPair::from_seed(pc::Bytes(32, 0x43));
    const auto key_a = pc::VerifyingKey::from_bytes(a.public_bytes);
    const auto key_b = pc::VerifyingKey::from_bytes(b.public_bytes);
    ASSERT_TRUE(key_a.has_value() && key_b.has_value());
    for (const SignedCase& c : signed_cases(a, b, 6)) {
        const bool reference = pc::verify(c.public_key, c.msg, c.sig);
        ASSERT_EQ(reference, c.valid) << c.what;
        const pc::VerifyingKey& key =
            c.public_key == a.public_bytes ? *key_a : *key_b;
        EXPECT_EQ(pc::verify(key, c.msg, c.sig), reference) << c.what;
    }
}

TEST(KernelComb, KeysThatDoNotDecodeAreRejected) {
    const pc::KeyPair a = pc::KeyPair::from_seed(pc::Bytes(32, 0x44));
    const pc::Bytes msg = pc::to_bytes("off-curve key");
    const pc::Signature sig = pc::sign(a, msg);
    pc::Bytes off_curve = a.public_bytes;
    off_curve[40] ^= 0x01;
    ASSERT_FALSE(pc::verify(off_curve, msg, sig));
    EXPECT_FALSE(pc::VerifyingKey::from_bytes(off_curve).has_value());
    EXPECT_FALSE(pc::VerifyingKey::from_bytes(pc::Bytes(63, 0)).has_value());
    pc::SignerKeyMemo memo;
    EXPECT_FALSE(memo.verify(off_curve, msg, sig));
    EXPECT_EQ(memo.size(), 0u);
}

TEST(SignerKeyMemo, CachedKeyNeverVouchesForAnotherKey) {
    const pc::KeyPair a = pc::KeyPair::from_seed(pc::Bytes(32, 0x45));
    const pc::KeyPair b = pc::KeyPair::from_seed(pc::Bytes(32, 0x46));
    const pc::Bytes msg = pc::to_bytes("signed by A");
    const pc::Signature by_a = pc::sign(a, msg);
    pc::SignerKeyMemo memo;
    ASSERT_TRUE(memo.verify(a.public_bytes, msg, by_a));  // A's comb cached
    EXPECT_FALSE(memo.verify(b.public_bytes, msg, by_a));
    // A one-byte change at either end of A's key is another key, and so is
    // the curve point that shares A's x and negates its y: none of them
    // may reach A's comb.
    for (const std::size_t at : {std::size_t{0}, std::size_t{63}}) {
        pc::Bytes near_a = a.public_bytes;
        near_a[at] ^= 0x01;
        EXPECT_FALSE(memo.verify(near_a, msg, by_a)) << at;
    }
    const pc::Point& pa = a.public_key;
    const pc::Bytes mirrored = pc::point_to_bytes(
        pc::Point{pa.x, pc::fe_neg(pa.y), pa.z, pc::fe_neg(pa.t)});
    ASSERT_TRUE(std::equal(mirrored.begin(), mirrored.begin() + 32,
                           a.public_bytes.begin()));
    EXPECT_FALSE(pc::verify(mirrored, msg, by_a));
    EXPECT_FALSE(memo.verify(mirrored, msg, by_a));
    EXPECT_TRUE(memo.verify(a.public_bytes, msg, by_a));
    EXPECT_TRUE(memo.verify(b.public_bytes, msg, pc::sign(b, msg)));
}

TEST(SignerKeyMemo, CyclingPastCapacityKeepsReferenceVerdicts) {
    constexpr std::size_t kSigners = pc::SignerKeyMemo::kCapacity + 1;
    std::vector<pc::KeyPair> signers;
    for (std::size_t i = 0; i < kSigners; ++i)
        signers.push_back(pc::KeyPair::from_seed(
            pc::Bytes(32, static_cast<std::uint8_t>(0x60 + i))));
    pc::SignerKeyMemo memo;
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < kSigners; ++i) {
            const pc::KeyPair& next = signers[(i + 1) % kSigners];
            for (const SignedCase& c :
                 signed_cases(signers[i], next, 1)) {
                EXPECT_EQ(memo.verify(c.public_key, c.msg, c.sig),
                          pc::verify(c.public_key, c.msg, c.sig))
                    << "round " << round << " signer " << i << ": " << c.what;
                EXPECT_LE(memo.size(), pc::SignerKeyMemo::kCapacity);
            }
        }
    }
    EXPECT_EQ(memo.size(), pc::SignerKeyMemo::kCapacity);
}

TEST(KernelComb, SigningKnownAnswer) {
    // Public keys and signatures feed every certificate, fact key and
    // golden result, so keygen and signing must not move a bit.
    const pc::KeyPair key = pc::KeyPair::from_seed(pc::Bytes(32, 0x5A));
    const pc::Bytes msg = pc::to_bytes("platoon comb known answer");
    EXPECT_EQ(pc::to_hex(key.public_bytes),
              "fcd600a11ad7b6e332f2f1bfbde4eefb325b552289a53fa1474215264427fb4b"
              "17d47e2752f92cfdc39f0cafc9addec8352153375fd9bd8b5595cea76a38d71d");
    const pc::Signature sig = pc::sign(key, msg);
    EXPECT_EQ(pc::to_hex(sig.bytes),
              "e9ec10cb133269bee917dfff0e7d57f922cc5ae8f7c0e9e0e3ac24980858e961"
              "c524cda4930a8feb972b8184fe6437d73e676616cad5e42ef770f82a04623f37"
              "bcf0cb7aa15cb0c3dd53230e0813035f8b650ca62405e018220e1249c7bda50d");
    EXPECT_TRUE(pc::verify(key.public_bytes, msg, sig));
}

// --- 6. fact-key memo -------------------------------------------------------

TEST(FactKeyMemo, SingleByteChangeInAnyPartMisses) {
    pc::FactKeyMemo memo(8);
    const pc::Bytes kind = {1}, key(64, 0x11), fields(22, 0x22),
                    payload(40, 0x33), tag(96, 0x44);
    int computed = 0;
    const auto lookup = [&](const pc::Bytes& a, const pc::Bytes& b,
                            const pc::Bytes& c, const pc::Bytes& d,
                            std::uint8_t value) {
        return memo.key_for({kind, a, b, c, d}, [&] {
            ++computed;
            pc::FactKeyMemo::Key k{};
            k[0] = value;
            return k;
        });
    };
    EXPECT_EQ(lookup(key, fields, payload, tag, 1)[0], 1);
    EXPECT_EQ(lookup(key, fields, payload, tag, 2)[0], 1);  // memoized
    EXPECT_EQ(computed, 1);

    const std::vector<const pc::Bytes*> parts = {&key, &fields, &payload,
                                                 &tag};
    for (std::size_t part = 0; part < parts.size(); ++part) {
        for (std::size_t at = 0; at < parts[part]->size(); ++at) {
            std::vector<pc::Bytes> changed = {key, fields, payload, tag};
            changed[part][at] ^= 0x01;
            const int before = computed;
            EXPECT_EQ(lookup(changed[0], changed[1], changed[2], changed[3],
                             7)[0],
                         7)
                << "part " << part << " byte " << at;
            EXPECT_EQ(computed, before + 1);
            // Put the original back so every variant is one byte away
            // from a memoized preimage.
            EXPECT_EQ(lookup(key, fields, payload, tag, 1)[0], 1);
        }
    }
}

TEST(FactKeyMemo, PartBoundariesAndLengthsAreCompared) {
    pc::FactKeyMemo memo(1);  // one slot: every lookup sees the last store
    int computed = 0;
    const auto compute = [&] {
        ++computed;
        return pc::FactKeyMemo::Key{};
    };
    const pc::Bytes ab = {0xA, 0xB}, a = {0xA}, b = {0xB}, empty;
    (void)memo.key_for({a, b}, compute);
    (void)memo.key_for({ab, empty}, compute);  // same bytes, other split
    (void)memo.key_for({ab}, compute);         // same bytes, fewer parts
    (void)memo.key_for({a, b, empty}, compute);
    EXPECT_EQ(computed, 4);
    (void)memo.key_for({a, b, empty}, compute);
    EXPECT_EQ(computed, 4);
}

class FactKeyMemoEnvelopes : public ::testing::Test {
protected:
    static constexpr std::uint32_t kSender = 9;
    static constexpr double kNow = 20.0;

    pc::CertificateAuthority ca_{pc::BytesView(pc::Bytes(32, 0x31))};
    pc::KeyPair signer_ = pc::KeyPair::from_seed(pc::Bytes(32, 0x32));
    pc::Credential cred_{signer_, ca_.issue(NodeId{kSender}, 0,
                                            signer_.public_bytes, 0.0, 100.0)};
    pc::Bytes group_key_ = pc::Bytes(32, 0x33);

    std::vector<pc::MessageProtection> receivers(pc::AuthMode mode,
                                                 pc::VerdictCache* cache) {
        std::vector<pc::MessageProtection> bank;
        for (int i = 0; i < 3; ++i) {
            pc::MessageProtection::Config cfg;
            cfg.mode = mode;
            cfg.check_replay = false;  // the same seq is delivered repeatedly
            pc::MessageProtection r(cfg);
            r.set_ca_public_key(ca_.public_key());
            r.set_group_key(group_key_);
            r.set_verdict_cache(cache);
            bank.push_back(std::move(r));
        }
        return bank;
    }

    pc::Envelope honest(pc::AuthMode mode) {
        pc::MessageProtection::Config cfg;
        cfg.mode = mode;
        pc::MessageProtection sender(cfg);
        sender.set_credential(cred_);
        sender.set_group_key(group_key_);
        const pc::Bytes payload = pc::to_bytes("memo beacon payload bytes");
        return sender.protect(kSender, pc::BytesView(payload), kNow);
    }

    /// Every single-byte variant of an envelope's authenticated content:
    /// payload, tag and (signed) the certificate's public key and CA
    /// signature; plus each header field nudged (sequence number,
    /// timestamp, sender, encryption flag), as a replaying or spoofing
    /// attacker would.
    static std::vector<pc::Envelope> forged_variants(const pc::Envelope& e) {
        std::vector<pc::Envelope> out;
        out.push_back(e);
        out.back().seq += 1;
        out.push_back(e);
        out.back().timestamp += 1e-3;
        out.push_back(e);
        out.back().sender += 1;
        out.push_back(e);
        out.back().encrypted = !e.encrypted;
        for (std::size_t i = 0; i < e.payload.size(); ++i) {
            out.push_back(e);
            out.back().payload[i] ^= 0x80;
        }
        for (std::size_t i = 0; i < e.tag.size(); ++i) {
            out.push_back(e);
            out.back().tag[i] ^= 0x01;
        }
        if (e.cert) {
            for (std::size_t i = 0; i < e.cert->public_key.size(); ++i) {
                out.push_back(e);
                out.back().cert->public_key[i] ^= 0x01;
            }
            for (std::size_t i = 0; i < e.cert->ca_signature.size(); ++i) {
                out.push_back(e);
                out.back().cert->ca_signature[i] ^= 0x01;
            }
            out.push_back(e);
            out.back().cert->serial += 1;
        }
        return out;
    }

    /// The verdict of a receiver that has seen nothing before: no shared
    /// cache and no memory of earlier certificates.
    pc::VerifyResult first_sight(pc::AuthMode mode, const pc::Envelope& env) {
        auto fresh = receivers(mode, nullptr);
        pc::Envelope copy = env;
        return fresh.front().verify_and_open(copy, kNow);
    }

    void expect_memo_never_aliases(pc::AuthMode mode, bool prewarm) {
        const pc::Envelope good = honest(mode);
        pc::VerdictCache cache;
        auto shared = receivers(mode, &cache);
        RandomStream rng(156, "kernel.memo.prewarm");
        const pc::ScalarBits bits = [&rng] { return rng.bits(); };
        const auto deliver = [&](const pc::Envelope& env) {
            if (prewarm)
                pc::prewarm_signature_verdicts(
                    env, pc::BytesView(ca_.public_key()), cache, bits);
            const pc::VerifyResult expected = first_sight(mode, env);
            for (auto& receiver : shared) {
                pc::Envelope copy = env;
                EXPECT_EQ(receiver.verify_and_open(copy, kNow), expected);
            }
            return expected;
        };
        ASSERT_EQ(deliver(good), pc::VerifyResult::kOk);
        for (const pc::Envelope& variant : forged_variants(good)) {
            // Every variant is a forgery and must read as one everywhere.
            EXPECT_NE(deliver(variant), pc::VerifyResult::kOk);
            // The honest preimage back in the memo for the next variant.
            EXPECT_EQ(deliver(good), pc::VerifyResult::kOk);
        }
    }
};

TEST_F(FactKeyMemoEnvelopes, SignedVariantsNeverReuseAKey) {
    expect_memo_never_aliases(pc::AuthMode::kSignature, false);
}

TEST_F(FactKeyMemoEnvelopes, PrewarmedSignedVariantsNeverReuseAKey) {
    expect_memo_never_aliases(pc::AuthMode::kSignature, true);
}

TEST_F(FactKeyMemoEnvelopes, GroupMacVariantsNeverReuseAKey) {
    expect_memo_never_aliases(pc::AuthMode::kGroupMac, false);
}

TEST_F(FactKeyMemoEnvelopes, SwappedCertificateNeverReusesTheSignatureKey) {
    // A second valid certificate for the same subject, under another key:
    // its CA fact is fine, so only the signer-key part of the signature
    // fact's preimage tells the swapped envelope from the honest one.
    const pc::KeyPair other = pc::KeyPair::from_seed(pc::Bytes(32, 0x34));
    const pc::Certificate other_cert =
        ca_.issue(NodeId{kSender}, 1, other.public_bytes, 0.0, 100.0);
    const pc::Envelope good = honest(pc::AuthMode::kSignature);
    pc::Envelope swapped = good;
    swapped.cert = other_cert;
    ASSERT_EQ(first_sight(pc::AuthMode::kSignature, swapped),
              pc::VerifyResult::kBadTag);

    pc::VerdictCache cache;
    auto shared = receivers(pc::AuthMode::kSignature, &cache);
    for (auto& receiver : shared) {
        pc::Envelope a = good, b = swapped;
        EXPECT_EQ(receiver.verify_and_open(a, kNow), pc::VerifyResult::kOk);
        EXPECT_EQ(receiver.verify_and_open(b, kNow),
                  pc::VerifyResult::kBadTag);
    }
}

// --- 7. derived keys --------------------------------------------------------

/// The payload `receiver`'s last verify_and_open opened, as owned bytes.
pc::Bytes opened(const pc::MessageProtection& receiver,
                 const pc::Envelope& envelope) {
    const pc::BytesView view = receiver.plaintext(envelope);
    return pc::Bytes(view.begin(), view.end());
}

pc::MessageProtection group_node(const pc::Bytes& key, bool encrypt) {
    pc::MessageProtection::Config cfg;
    cfg.mode = pc::AuthMode::kGroupMac;
    cfg.encrypt = encrypt;
    cfg.check_replay = false;
    pc::MessageProtection node(cfg);
    node.set_group_key(key);
    return node;
}

TEST(DerivedKeys, GroupMacAndEncryptionKeysFollowAReplacedKey) {
    const pc::Bytes k1(32, 0x01), k2(32, 0x02);
    const pc::Bytes payload = pc::to_bytes("rekeyed payload");
    auto sender = group_node(k1, true);
    auto receiver = group_node(k1, true);

    pc::Envelope env = sender.protect(3, pc::BytesView(payload), 1.0);
    pc::Envelope copy = env;
    ASSERT_EQ(receiver.verify_and_open(copy, 1.0), pc::VerifyResult::kOk);
    EXPECT_EQ(opened(receiver, copy), payload);

    // Only the receiver rekeys: k1 traffic no longer authenticates.
    receiver.set_group_key(k2);
    copy = env;
    EXPECT_EQ(receiver.verify_and_open(copy, 1.0), pc::VerifyResult::kBadTag);

    // The sender follows: its traffic opens at the rekeyed receiver and at
    // a node that only ever held k2, so both derived keys moved.
    sender.set_group_key(k2);
    const pc::Envelope env2 = sender.protect(3, pc::BytesView(payload), 1.0);
    EXPECT_NE(env2.tag, env.tag);
    copy = env2;
    ASSERT_EQ(receiver.verify_and_open(copy, 1.0), pc::VerifyResult::kOk);
    EXPECT_EQ(opened(receiver, copy), payload);
    auto fresh = group_node(k2, true);
    copy = env2;
    ASSERT_EQ(fresh.verify_and_open(copy, 1.0), pc::VerifyResult::kOk);
    EXPECT_EQ(opened(fresh, copy), payload);

    // An empty key removes the group key.
    receiver.set_group_key({});
    EXPECT_FALSE(receiver.has_group_key());
    copy = env2;
    EXPECT_EQ(receiver.verify_and_open(copy, 1.0), pc::VerifyResult::kNoKey);
}

TEST(DerivedKeys, GroupMacFactsFollowAReplacedKeyUnderASharedCache) {
    // The fact binds the key's digest: a receiver that rekeyed must not be
    // served the verdict another receiver cached under the old key.
    const pc::Bytes k1(32, 0x0A), k2(32, 0x0B);
    const pc::Bytes payload = pc::to_bytes("cached under k1");
    pc::VerdictCache cache;
    auto sender = group_node(k1, false);
    auto old_key = group_node(k1, false);
    auto rekeyed = group_node(k1, false);
    old_key.set_verdict_cache(&cache);
    rekeyed.set_verdict_cache(&cache);
    rekeyed.set_group_key(k2);
    const pc::Envelope env = sender.protect(4, pc::BytesView(payload), 2.0);
    pc::Envelope a = env, b = env;
    EXPECT_EQ(old_key.verify_and_open(a, 2.0), pc::VerifyResult::kOk);
    EXPECT_EQ(rekeyed.verify_and_open(b, 2.0), pc::VerifyResult::kBadTag);
}

TEST(DerivedKeys, PairwiseMacKeyFollowsAReplacedKey) {
    const pc::Bytes k1(32, 0x21), k2(32, 0x22);
    const pc::Bytes payload = pc::to_bytes("pairwise");
    pc::MessageProtection::Config cfg;
    cfg.mode = pc::AuthMode::kPairwiseMac;
    cfg.check_replay = false;
    pc::MessageProtection sender(cfg), receiver(cfg);
    sender.set_pairwise_key(2, k1);
    receiver.set_pairwise_key(1, k1);
    const pc::Envelope env = sender.protect(1, pc::BytesView(payload), 3.0, 2);
    pc::Envelope copy = env;
    ASSERT_EQ(receiver.verify_and_open(copy, 3.0), pc::VerifyResult::kOk);

    receiver.set_pairwise_key(1, k2);
    copy = env;
    EXPECT_EQ(receiver.verify_and_open(copy, 3.0), pc::VerifyResult::kBadTag);
    sender.set_pairwise_key(2, k2);
    copy = sender.protect(1, pc::BytesView(payload), 3.0, 2);
    EXPECT_EQ(receiver.verify_and_open(copy, 3.0), pc::VerifyResult::kOk);
}

}  // namespace
