// Edge cases for the curve arithmetic and signature scheme beyond the
// main algebraic suite.
#include <gtest/gtest.h>

#include "crypto/eddsa.hpp"
#include "oracles.hpp"
#include "sim/random.hpp"

namespace pc = platoon::crypto;
namespace oracle = platoon::crypto::oracle;
using platoon::sim::RandomStream;

namespace {

pc::U256 random_scalar(RandomStream& rng) {
    pc::U256 x;
    for (auto& w : x.w) w = rng.bits();
    return oracle::mod(x, pc::group_order());
}

TEST(PointEdge, NegationIsAdditiveInverse) {
    const auto& B = pc::base_point();
    const auto sum = pc::point_add(B, pc::point_neg(B));
    EXPECT_TRUE(pc::point_equal(sum, pc::Point::identity()));
    EXPECT_TRUE(pc::on_curve(pc::point_neg(B)));
}

TEST(PointEdge, DoubleScalarMatchesTwoSingleMuls) {
    RandomStream rng(31, "edge.shamir");
    const auto& B = pc::base_point();
    const auto P = oracle::scalar_mul(pc::U256(12345), B);
    for (int i = 0; i < 5; ++i) {
        const auto a = random_scalar(rng);
        const auto b = random_scalar(rng);
        const auto fused = oracle::double_scalar_mul(a, B, b, P);
        const auto split =
            pc::point_add(oracle::scalar_mul(a, B), oracle::scalar_mul(b, P));
        EXPECT_TRUE(pc::point_equal(fused, split));
    }
}

TEST(PointEdge, ScalarZeroAndOne) {
    const auto& B = pc::base_point();
    EXPECT_TRUE(pc::point_equal(oracle::scalar_mul(pc::U256(0), B),
                                pc::Point::identity()));
    EXPECT_TRUE(pc::point_equal(oracle::scalar_mul(pc::U256(1), B), B));
}

TEST(PointEdge, OrderMinusOneIsNegation) {
    const auto& B = pc::base_point();
    bool borrow;
    const auto l_minus_1 = pc::sub(pc::group_order(), pc::U256(1), borrow);
    EXPECT_FALSE(borrow);
    EXPECT_TRUE(pc::point_equal(oracle::scalar_mul(l_minus_1, B),
                                pc::point_neg(B)));
}

TEST(PointEdge, FromBytesRejectsWrongLength) {
    EXPECT_FALSE(pc::point_from_bytes(pc::Bytes(32, 0)).has_value());
    EXPECT_FALSE(pc::point_from_bytes(pc::Bytes(65, 0)).has_value());
    EXPECT_FALSE(pc::point_from_bytes(pc::Bytes{}).has_value());
}

TEST(SignatureEdge, RejectsWrongLengthSignature) {
    const auto kp = pc::KeyPair::from_seed(pc::Bytes(32, 9));
    const auto msg = pc::to_bytes("m");
    pc::Signature short_sig{pc::Bytes(64, 0)};
    EXPECT_FALSE(pc::verify(kp.public_bytes, msg, short_sig));
    pc::Signature empty_sig{};
    EXPECT_FALSE(pc::verify(kp.public_bytes, msg, empty_sig));
}

TEST(SignatureEdge, RejectsScalarAboveGroupOrder) {
    const auto kp = pc::KeyPair::from_seed(pc::Bytes(32, 10));
    const auto msg = pc::to_bytes("m");
    auto sig = pc::sign(kp, msg);
    // Force s >= L by setting the top bytes.
    for (std::size_t i = 64; i < 96; ++i) sig.bytes[i] = 0xFF;
    EXPECT_FALSE(pc::verify(kp.public_bytes, msg, sig));
}

TEST(SignatureEdge, RejectsGarbagePublicKey) {
    const auto kp = pc::KeyPair::from_seed(pc::Bytes(32, 11));
    const auto msg = pc::to_bytes("m");
    const auto sig = pc::sign(kp, msg);
    EXPECT_FALSE(pc::verify(pc::Bytes(64, 0xAB), msg, sig));
    EXPECT_FALSE(pc::verify(pc::Bytes(10, 0x01), msg, sig));
}

TEST(SignatureEdge, EmptyMessageSigns) {
    const auto kp = pc::KeyPair::from_seed(pc::Bytes(32, 12));
    const auto sig = pc::sign(kp, pc::Bytes{});
    EXPECT_TRUE(pc::verify(kp.public_bytes, pc::Bytes{}, sig));
    EXPECT_FALSE(pc::verify(kp.public_bytes, pc::to_bytes("x"), sig));
}

TEST(SignatureEdge, LargeMessageSigns) {
    const auto kp = pc::KeyPair::from_seed(pc::Bytes(32, 13));
    const pc::Bytes big(100000, 0x5A);
    const auto sig = pc::sign(kp, big);
    EXPECT_TRUE(pc::verify(kp.public_bytes, big, sig));
}

TEST(KeyPairEdge, DistinctSeedsDistinctKeys) {
    const auto a = pc::KeyPair::from_seed(pc::Bytes(32, 1));
    const auto b = pc::KeyPair::from_seed(pc::Bytes(32, 2));
    EXPECT_NE(a.public_bytes, b.public_bytes);
    EXPECT_FALSE(a.secret == b.secret);
    EXPECT_TRUE(pc::on_curve(a.public_key));
}

TEST(KeyPairEdge, PublicKeyMatchesSecret) {
    RandomStream rng(37, "edge.kp");
    for (int i = 0; i < 3; ++i) {
        pc::Bytes seed(32);
        for (auto& byte : seed) byte = static_cast<std::uint8_t>(rng.bits());
        const auto kp = pc::KeyPair::from_seed(seed);
        EXPECT_TRUE(pc::point_equal(kp.public_key,
                                    oracle::scalar_mul(kp.secret, pc::base_point())));
    }
}

}  // namespace
