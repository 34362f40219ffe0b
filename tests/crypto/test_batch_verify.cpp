// Adversarial and property tests for batch EdDSA verification: the
// random-linear-combination acceptance test must agree with per-item
// crypto::verify on every input, and bisection must pinpoint exactly the
// forged indices when a batch rejects.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/eddsa.hpp"
#include "obs/counters.hpp"
#include "oracles.hpp"
#include "sim/random.hpp"

namespace pc = platoon::crypto;
namespace oracle = platoon::crypto::oracle;
using platoon::sim::RandomStream;

namespace {

pc::ScalarBits bits_from(RandomStream& rng) {
    return [&rng] { return rng.bits(); };
}

/// `n` honestly signed items under distinct keys and messages.
std::vector<pc::BatchItem> make_batch(std::size_t n, std::uint8_t salt = 0) {
    std::vector<pc::BatchItem> items(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto kp = pc::KeyPair::from_seed(
            pc::Bytes(32, static_cast<std::uint8_t>(salt * 31 + i + 1)));
        pc::Bytes msg = pc::to_bytes("platoon beacon ");
        msg.push_back(static_cast<std::uint8_t>(i));
        msg.push_back(salt);
        items[i].sig = pc::sign(kp, pc::BytesView(msg));
        items[i].public_key = kp.public_bytes;
        items[i].msg = std::move(msg);
    }
    return items;
}

/// Forgery: the signature no longer matches the message content.
void forge(pc::BatchItem& item) { item.msg.back() ^= 0x5A; }

std::vector<bool> individual_verdicts(const std::vector<pc::BatchItem>& items) {
    std::vector<bool> out;
    out.reserve(items.size());
    for (const auto& item : items)
        out.push_back(pc::verify(pc::BytesView(item.public_key),
                                 pc::BytesView(item.msg), item.sig));
    return out;
}

TEST(BatchVerify, AllGoodExtremeAcceptsEverySize) {
    RandomStream rng(7, "batch.allgood");
    for (const std::size_t n : {1u, 2u, 3u, 8u, 16u}) {
        const auto items = make_batch(n);
        EXPECT_TRUE(pc::batch_verify(items, bits_from(rng))) << "n=" << n;
        const auto each = pc::batch_verify_each(items, bits_from(rng));
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(each[i]) << "n=" << n << " i=" << i;
    }
}

TEST(BatchVerify, EmptyBatchIsVacuouslyTrue) {
    RandomStream rng(7, "batch.empty");
    EXPECT_TRUE(pc::batch_verify({}, bits_from(rng)));
    EXPECT_TRUE(pc::batch_verify_each({}, bits_from(rng)).empty());
}

TEST(BatchVerify, SingleForgedSignatureRejectsBatch) {
    RandomStream rng(11, "batch.oneforged");
    auto items = make_batch(8);
    forge(items[3]);
    EXPECT_FALSE(pc::batch_verify(items, bits_from(rng)));
}

TEST(BatchVerify, BisectionPinpointsExactlyTheForgedIndex) {
    RandomStream rng(13, "batch.bisect");
    for (const std::size_t n : {2u, 5u, 8u}) {
        for (std::size_t bad = 0; bad < n; ++bad) {
            auto items = make_batch(n, static_cast<std::uint8_t>(n + bad));
            forge(items[bad]);
            const auto each = pc::batch_verify_each(items, bits_from(rng));
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(each[i], i != bad)
                    << "n=" << n << " bad=" << bad << " i=" << i;
        }
    }
}

TEST(BatchVerify, SeveralOfNForgedAreAllIdentified) {
    RandomStream rng(17, "batch.several");
    auto items = make_batch(9);
    forge(items[1]);
    forge(items[4]);
    forge(items[6]);
    EXPECT_FALSE(pc::batch_verify(items, bits_from(rng)));
    const auto each = pc::batch_verify_each(items, bits_from(rng));
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(each[i], i != 1 && i != 4 && i != 6) << "i=" << i;
}

TEST(BatchVerify, AllBadExtremeRejectsEveryItem) {
    RandomStream rng(19, "batch.allbad");
    auto items = make_batch(6);
    for (auto& item : items) forge(item);
    EXPECT_FALSE(pc::batch_verify(items, bits_from(rng)));
    const auto each = pc::batch_verify_each(items, bits_from(rng));
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_FALSE(each[i]) << "i=" << i;
}

TEST(BatchVerify, MalformedItemsFailWithoutPoisoningTheRest) {
    RandomStream rng(23, "batch.malformed");
    auto items = make_batch(5);
    items[0].sig.bytes.resize(64);                   // wrong length
    for (std::size_t i = 64; i < 96; ++i)
        items[2].sig.bytes[i] = 0xFF;                // s >= L
    items[4].public_key = pc::Bytes(64, 0xAB);       // off-curve point
    EXPECT_FALSE(pc::batch_verify(items, bits_from(rng)));
    const auto each = pc::batch_verify_each(items, bits_from(rng));
    EXPECT_FALSE(each[0]);
    EXPECT_TRUE(each[1]);
    EXPECT_FALSE(each[2]);
    EXPECT_TRUE(each[3]);
    EXPECT_FALSE(each[4]);
}

TEST(BatchVerify, PropertyRandomSizesAndPositionsMatchIndividualVerify) {
    // Seeded property sweep: random batch size, random forged subset
    // (including the occasional all-good and all-bad draw); the batch
    // verdicts must equal per-item crypto::verify everywhere.
    RandomStream shape(29, "batch.prop.shape");
    RandomStream coeffs(29, "batch.prop.coeffs");
    for (int iter = 0; iter < 25; ++iter) {
        const std::size_t n = 1 + shape.uniform_int(12);
        auto items = make_batch(n, static_cast<std::uint8_t>(iter));
        for (auto& item : items)
            if (shape.chance(0.3)) forge(item);
        const auto expected = individual_verdicts(items);
        const auto each = pc::batch_verify_each(items, bits_from(coeffs));
        EXPECT_EQ(each, expected) << "iter=" << iter << " n=" << n;
        bool all_good = true;
        for (const bool v : expected) all_good = all_good && v;
        EXPECT_EQ(pc::batch_verify(items, bits_from(coeffs)), all_good)
            << "iter=" << iter;
    }
}

TEST(BatchVerify, AcceptedBatchCountsEveryItemAsBatched) {
    platoon::obs::reset_counters();
    platoon::obs::set_enabled(true);
    RandomStream rng(31, "batch.counter");
    const auto items = make_batch(4);
    EXPECT_TRUE(pc::batch_verify(items, bits_from(rng)));
    const auto snap = platoon::obs::counter_snapshot();
    platoon::obs::set_enabled(false);
    EXPECT_EQ(snap.at("crypto.verify.batched"), 4u);
}

TEST(MultiScalarMul, MatchesSumOfIndividualMultiplications) {
    RandomStream rng(37, "batch.msm");
    const auto& B = pc::base_point();
    for (const std::size_t n : {1u, 2u, 3u, 5u}) {
        std::vector<std::pair<pc::U256, pc::Point>> terms;
        pc::Point expected = pc::Point::identity();
        for (std::size_t i = 0; i < n; ++i) {
            pc::U256 k;
            for (auto& w : k.w) w = rng.bits();
            k = oracle::mod(k, pc::group_order());
            const pc::Point p =
                oracle::scalar_mul(pc::U256(1000 + 7 * (i + 1)), B);
            expected = pc::point_add(expected, oracle::scalar_mul(k, p));
            terms.emplace_back(k, p);
        }
        EXPECT_TRUE(pc::point_equal(pc::multi_scalar_mul(terms), expected))
            << "n=" << n;
    }
}

}  // namespace
