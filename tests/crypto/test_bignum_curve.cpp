// Tests for the 256-bit integer arithmetic and the edwards25519 field /
// group operations. The curve constants are derived arithmetically
// (d = -121665/121666, By = 4/5), so these algebraic-property tests are the
// ground truth: group laws, field axioms, and sign/verify consistency
// (which additionally pins the group order L — a wrong L breaks s*B == R+e*P).
#include <gtest/gtest.h>

#include "crypto/eddsa.hpp"
#include "crypto/u256.hpp"
#include "oracles.hpp"
#include "sim/random.hpp"

namespace pc = platoon::crypto;
namespace oracle = platoon::crypto::oracle;
using platoon::sim::RandomStream;

namespace {

pc::U256 random_u256(RandomStream& rng) {
    pc::U256 x;
    for (auto& w : x.w) w = rng.bits();
    return x;
}

pc::U256 random_scalar(RandomStream& rng) {
    return oracle::mod(random_u256(rng), pc::group_order());
}

TEST(U256, HexRoundTrip) {
    const auto x = pc::U256::from_hex(
        "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed");
    EXPECT_EQ(x.to_hex(),
              "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed");
    EXPECT_EQ(pc::U256(0xABCDu).to_hex(),
              "000000000000000000000000000000000000000000000000000000000000abcd");
}

TEST(U256, AddSubInverse) {
    RandomStream rng(1, "u256.addsub");
    for (int i = 0; i < 200; ++i) {
        const auto a = random_u256(rng);
        const auto b = random_u256(rng);
        bool carry, borrow;
        const auto sum = pc::add(a, b, carry);
        const auto back = pc::sub(sum, b, borrow);
        EXPECT_EQ(back, a);
        EXPECT_EQ(carry, borrow);  // overflow wraps consistently
    }
}

TEST(U256, CompareReflectsSubBorrow) {
    RandomStream rng(2, "u256.cmp");
    for (int i = 0; i < 200; ++i) {
        const auto a = random_u256(rng);
        const auto b = random_u256(rng);
        bool borrow;
        pc::sub(a, b, borrow);
        EXPECT_EQ(borrow, pc::cmp(a, b) == std::strong_ordering::less);
    }
}

TEST(U256, ModMatchesSmallIntegers) {
    // Cross-check mod against native 64-bit arithmetic on small values.
    RandomStream rng(3, "u256.modsmall");
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t x = rng.bits();
        const std::uint64_t m = (rng.bits() >> 32) + 1;
        EXPECT_EQ(oracle::mod(pc::U256(x), pc::U256(m)).w[0], x % m);
    }
}

TEST(U256, MulModMatchesU128) {
    RandomStream rng(4, "u256.mulmod");
    for (int i = 0; i < 300; ++i) {
        const std::uint64_t a = rng.bits();
        const std::uint64_t b = rng.bits();
        const std::uint64_t m = (rng.bits() | 1) >> 1;
        if (m == 0) continue;
        const unsigned __int128 expect =
            static_cast<unsigned __int128>(a) % m * (b % m) % m;
        const auto got =
            oracle::mul_mod(pc::U256(a % m), pc::U256(b % m), pc::U256(m));
        EXPECT_EQ(got.w[0], static_cast<std::uint64_t>(expect));
        EXPECT_EQ(got.w[1], static_cast<std::uint64_t>(expect >> 64));
    }
}

TEST(U256, ModularRing) {
    // (a+b)+c == a+(b+c), a*(b+c) == a*b + a*c (mod L).
    RandomStream rng(5, "u256.ring");
    const auto& L = pc::group_order();
    for (int i = 0; i < 100; ++i) {
        const auto a = random_scalar(rng);
        const auto b = random_scalar(rng);
        const auto c = random_scalar(rng);
        EXPECT_EQ(pc::add_mod(pc::add_mod(a, b, L), c, L),
                  pc::add_mod(a, pc::add_mod(b, c, L), L));
        EXPECT_EQ(oracle::mul_mod(a, pc::add_mod(b, c, L), L),
                  pc::add_mod(oracle::mul_mod(a, b, L), oracle::mul_mod(a, c, L), L));
        EXPECT_EQ(pc::sub_mod(pc::add_mod(a, b, L), b, L), a);
    }
}

TEST(U256, LeBytesRoundTrip) {
    RandomStream rng(6, "u256.bytes");
    for (int i = 0; i < 50; ++i) {
        const auto a = random_u256(rng);
        EXPECT_EQ(pc::U256::from_le_bytes(a.to_le_bytes()), a);
    }
}

// ---------------------------------------------------------------------------
// Field mod 2^255-19

TEST(Fe, AddSubMulAxioms) {
    RandomStream rng(7, "fe.axioms");
    for (int i = 0; i < 50; ++i) {
        pc::Fe a, b, c;
        for (auto& l : a.limb) l = rng.bits() & ((1ull << 51) - 1);
        for (auto& l : b.limb) l = rng.bits() & ((1ull << 51) - 1);
        for (auto& l : c.limb) l = rng.bits() & ((1ull << 51) - 1);
        // Commutativity and associativity of multiplication.
        EXPECT_TRUE(pc::fe_equal(pc::fe_mul(a, b), pc::fe_mul(b, a)));
        EXPECT_TRUE(pc::fe_equal(pc::fe_mul(pc::fe_mul(a, b), c),
                                 pc::fe_mul(a, pc::fe_mul(b, c))));
        // Distributivity.
        EXPECT_TRUE(pc::fe_equal(pc::fe_mul(a, pc::fe_add(b, c)),
                                 pc::fe_add(pc::fe_mul(a, b), pc::fe_mul(a, c))));
        // Additive inverse.
        EXPECT_TRUE(pc::fe_is_zero(pc::fe_add(a, pc::fe_neg(a))));
        // Subtraction.
        EXPECT_TRUE(pc::fe_equal(pc::fe_sub(pc::fe_add(a, b), b), a));
    }
}

TEST(Fe, MultiplicativeInverse) {
    RandomStream rng(8, "fe.inv");
    for (int i = 0; i < 20; ++i) {
        pc::Fe a;
        for (auto& l : a.limb) l = rng.bits() & ((1ull << 51) - 1);
        if (pc::fe_is_zero(a)) continue;
        EXPECT_TRUE(pc::fe_equal(pc::fe_mul(a, pc::fe_inv(a)), pc::Fe::one()));
    }
}

TEST(Fe, SqrtOfSquares) {
    RandomStream rng(9, "fe.sqrt");
    for (int i = 0; i < 20; ++i) {
        pc::Fe a;
        for (auto& l : a.limb) l = rng.bits() & ((1ull << 51) - 1);
        const pc::Fe sq = pc::fe_sq(a);
        const auto root = pc::fe_sqrt(sq);
        ASSERT_TRUE(root.has_value());
        EXPECT_TRUE(pc::fe_equal(pc::fe_sq(*root), sq));
    }
}

TEST(Fe, BytesRoundTrip) {
    RandomStream rng(10, "fe.bytes");
    for (int i = 0; i < 50; ++i) {
        pc::Fe a;
        for (auto& l : a.limb) l = rng.bits() & ((1ull << 51) - 1);
        const auto bytes = pc::fe_to_bytes(a);
        ASSERT_EQ(bytes.size(), 32u);
        EXPECT_TRUE(pc::fe_equal(pc::fe_from_bytes(bytes), a));
    }
}

TEST(Fe, CanonicalEncodingOfPEqualsZero) {
    // p itself encodes as zero.
    pc::Fe p;
    p.limb[0] = (1ull << 51) - 19;
    for (int i = 1; i < 5; ++i) p.limb[static_cast<std::size_t>(i)] = (1ull << 51) - 1;
    EXPECT_TRUE(pc::fe_is_zero(p));
}

// ---------------------------------------------------------------------------
// Group laws on edwards25519

TEST(Point, BasePointOnCurve) {
    EXPECT_TRUE(pc::on_curve(pc::base_point()));
}

TEST(Point, IdentityLaws) {
    const auto& B = pc::base_point();
    EXPECT_TRUE(pc::point_equal(pc::point_add(B, pc::Point::identity()), B));
    EXPECT_TRUE(pc::point_equal(pc::point_add(pc::Point::identity(), B), B));
}

TEST(Point, DoubleMatchesAdd) {
    const auto& B = pc::base_point();
    EXPECT_TRUE(pc::point_equal(pc::point_double(B), pc::point_add(B, B)));
    const auto B2 = pc::point_double(B);
    EXPECT_TRUE(pc::point_equal(pc::point_double(B2), pc::point_add(B2, B2)));
    EXPECT_TRUE(pc::on_curve(B2));
}

TEST(Point, ScalarDistributes) {
    RandomStream rng(11, "point.distribute");
    const auto& B = pc::base_point();
    const auto& L = pc::group_order();
    for (int i = 0; i < 5; ++i) {
        const auto a = oracle::mod(random_u256(rng), L);
        const auto b = oracle::mod(random_u256(rng), L);
        const auto lhs = oracle::scalar_mul(pc::add_mod(a, b, L), B);
        const auto rhs = pc::point_add(oracle::scalar_mul(a, B), oracle::scalar_mul(b, B));
        EXPECT_TRUE(pc::point_equal(lhs, rhs));
        EXPECT_TRUE(pc::on_curve(lhs));
    }
}

TEST(Point, OrderAnnihilatesBase) {
    // L * B == identity: the strongest check that L is the true group order.
    const auto id = oracle::scalar_mul(pc::group_order(), pc::base_point());
    EXPECT_TRUE(pc::point_equal(id, pc::Point::identity()));
}

TEST(Point, BytesRoundTrip) {
    const auto& B = pc::base_point();
    const auto bytes = pc::point_to_bytes(B);
    ASSERT_EQ(bytes.size(), 64u);
    const auto back = pc::point_from_bytes(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(pc::point_equal(*back, B));
}

TEST(Point, RejectsOffCurvePoints) {
    auto bytes = pc::point_to_bytes(pc::base_point());
    bytes[3] ^= 0x40;
    EXPECT_FALSE(pc::point_from_bytes(bytes).has_value());
}

// ---------------------------------------------------------------------------
// Signatures & DH

pc::Bytes seed(std::uint8_t fill) { return pc::Bytes(32, fill); }

TEST(Schnorr, SignVerifyRoundTrip) {
    const auto kp = pc::KeyPair::from_seed(seed(1));
    const auto msg = pc::to_bytes("beacon: v=25.0 x=142.7 a=0.1");
    const auto sig = pc::sign(kp, msg);
    EXPECT_TRUE(pc::verify(kp.public_bytes, msg, sig));
}

TEST(Schnorr, RejectsTamperedMessage) {
    const auto kp = pc::KeyPair::from_seed(seed(2));
    const auto msg = pc::to_bytes("join request for platoon 7");
    const auto sig = pc::sign(kp, msg);
    auto tampered = msg;
    tampered[0] ^= 1;
    EXPECT_FALSE(pc::verify(kp.public_bytes, tampered, sig));
}

TEST(Schnorr, RejectsTamperedSignature) {
    const auto kp = pc::KeyPair::from_seed(seed(3));
    const auto msg = pc::to_bytes("leave request");
    auto sig = pc::sign(kp, msg);
    sig.bytes[70] ^= 1;
    EXPECT_FALSE(pc::verify(kp.public_bytes, msg, sig));
    sig.bytes[70] ^= 1;
    sig.bytes[10] ^= 1;  // corrupt R
    EXPECT_FALSE(pc::verify(kp.public_bytes, msg, sig));
}

TEST(Schnorr, RejectsWrongKey) {
    const auto kp1 = pc::KeyPair::from_seed(seed(4));
    const auto kp2 = pc::KeyPair::from_seed(seed(5));
    const auto msg = pc::to_bytes("split request");
    const auto sig = pc::sign(kp1, msg);
    EXPECT_FALSE(pc::verify(kp2.public_bytes, msg, sig));
}

TEST(Schnorr, DeterministicSignatures) {
    const auto kp = pc::KeyPair::from_seed(seed(6));
    const auto msg = pc::to_bytes("m");
    EXPECT_EQ(pc::sign(kp, msg).bytes, pc::sign(kp, msg).bytes);
}

TEST(Schnorr, DistinctMessagesDistinctSignatures) {
    const auto kp = pc::KeyPair::from_seed(seed(7));
    EXPECT_NE(pc::sign(kp, pc::to_bytes("a")).bytes,
              pc::sign(kp, pc::to_bytes("b")).bytes);
}

TEST(Schnorr, ManyKeysManyMessages) {
    for (std::uint8_t k = 0; k < 8; ++k) {
        const auto kp = pc::KeyPair::from_seed(seed(static_cast<std::uint8_t>(10 + k)));
        for (int m = 0; m < 4; ++m) {
            const auto msg = pc::to_bytes("msg" + std::to_string(m));
            EXPECT_TRUE(pc::verify(kp.public_bytes, msg, pc::sign(kp, msg)));
        }
    }
}

TEST(Dh, SharedKeyAgrees) {
    const auto alice = pc::KeyPair::from_seed(seed(20));
    const auto bob = pc::KeyPair::from_seed(seed(21));
    const auto k_ab = pc::dh_shared_key(alice.secret, bob.public_bytes);
    const auto k_ba = pc::dh_shared_key(bob.secret, alice.public_bytes);
    EXPECT_EQ(k_ab, k_ba);
    EXPECT_EQ(k_ab.size(), 32u);
}

TEST(Dh, ThirdPartyGetsDifferentKey) {
    const auto alice = pc::KeyPair::from_seed(seed(22));
    const auto bob = pc::KeyPair::from_seed(seed(23));
    const auto eve = pc::KeyPair::from_seed(seed(24));
    const auto k_ab = pc::dh_shared_key(alice.secret, bob.public_bytes);
    const auto k_eb = pc::dh_shared_key(eve.secret, bob.public_bytes);
    EXPECT_NE(k_ab, k_eb);
}

}  // namespace
