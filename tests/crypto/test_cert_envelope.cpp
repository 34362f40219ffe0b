// Certificates, revocation, pseudonym pools and the secured-message
// envelope in all four authentication modes.
#include <gtest/gtest.h>

#include "crypto/cert.hpp"
#include "crypto/secured_message.hpp"

namespace pc = platoon::crypto;
using platoon::sim::NodeId;

namespace {

pc::Bytes seed(std::uint8_t fill) { return pc::Bytes(32, fill); }

/// The payload `receiver`'s last verify_and_open opened, as owned bytes.
pc::Bytes opened(const pc::MessageProtection& receiver,
                 const pc::Envelope& envelope) {
    const pc::BytesView view = receiver.plaintext(envelope);
    return pc::Bytes(view.begin(), view.end());
}

class CertTest : public ::testing::Test {
protected:
    pc::CertificateAuthority ca_{seed(9)};
    pc::KeyPair subject_key_ = pc::KeyPair::from_seed(seed(10));
};

TEST_F(CertTest, IssueAndVerify) {
    const auto cert =
        ca_.issue(NodeId{5}, 0, subject_key_.public_bytes, 0.0, 100.0);
    EXPECT_EQ(pc::verify_certificate(cert, ca_.public_key(), 50.0),
              pc::CertCheck::kOk);
}

TEST_F(CertTest, RejectsOutsideValidity) {
    const auto cert =
        ca_.issue(NodeId{5}, 0, subject_key_.public_bytes, 10.0, 100.0);
    EXPECT_EQ(pc::verify_certificate(cert, ca_.public_key(), 5.0),
              pc::CertCheck::kNotYetValid);
    EXPECT_EQ(pc::verify_certificate(cert, ca_.public_key(), 150.0),
              pc::CertCheck::kExpired);
}

TEST_F(CertTest, RejectsTamperedFields) {
    auto cert = ca_.issue(NodeId{5}, 0, subject_key_.public_bytes, 0.0, 100.0);
    cert.subject = NodeId{6};  // claim someone else's identity
    EXPECT_EQ(pc::verify_certificate(cert, ca_.public_key(), 50.0),
              pc::CertCheck::kBadSignature);
}

TEST_F(CertTest, RejectsWrongCa) {
    pc::CertificateAuthority other(seed(11));
    const auto cert =
        ca_.issue(NodeId{5}, 0, subject_key_.public_bytes, 0.0, 100.0);
    EXPECT_EQ(pc::verify_certificate(cert, other.public_key(), 50.0),
              pc::CertCheck::kBadSignature);
}

TEST_F(CertTest, RevocationList) {
    const auto cert =
        ca_.issue(NodeId{5}, 0, subject_key_.public_bytes, 0.0, 100.0);
    ca_.revoke(cert.serial);
    EXPECT_TRUE(ca_.crl().is_revoked(cert.serial));
    EXPECT_FALSE(ca_.crl().is_revoked(cert.serial + 1));
    const auto serials = ca_.crl().serials();
    ASSERT_EQ(serials.size(), 1u);
    EXPECT_EQ(serials[0], cert.serial);
}

TEST_F(CertTest, CrlMerge) {
    pc::RevocationList a, b;
    a.revoke(1);
    b.revoke(2);
    a.merge(b);
    EXPECT_TRUE(a.is_revoked(1));
    EXPECT_TRUE(a.is_revoked(2));
    EXPECT_EQ(a.size(), 2u);
}

TEST(PseudonymPool, RotatesRoundRobin) {
    pc::CertificateAuthority ca(seed(12));
    pc::PseudonymPool pool;
    for (std::uint64_t i = 1; i <= 3; ++i) {
        pc::Credential cred;
        cred.key = pc::KeyPair::from_seed(seed(static_cast<std::uint8_t>(i)));
        cred.cert = ca.issue(NodeId{7}, i, cred.key.public_bytes, 0.0, 100.0);
        pool.add(std::move(cred));
    }
    const auto first = pool.active().cert.serial;
    const auto second = pool.rotate().cert.serial;
    EXPECT_NE(first, second);
    pool.rotate();
    EXPECT_EQ(pool.rotate().cert.serial, first);  // wrapped around
    EXPECT_EQ(pool.rotations(), 3u);
}

// ---------------------------------------------------------------------------

class EnvelopeTest : public ::testing::Test {
protected:
    static pc::MessageProtection make(pc::AuthMode mode, bool encrypt = false) {
        pc::MessageProtection::Config config;
        config.mode = mode;
        config.encrypt = encrypt;
        return pc::MessageProtection(config);
    }

    pc::Bytes payload_ = pc::to_bytes("beacon pos=120.5 speed=25.0");
};

TEST_F(EnvelopeTest, NoneModePassesAnything) {
    auto sender = make(pc::AuthMode::kNone);
    auto receiver = make(pc::AuthMode::kNone);
    auto env = sender.protect(1, payload_, 0.0);
    EXPECT_EQ(receiver.verify_and_open(env, 0.0), pc::VerifyResult::kOk);
    EXPECT_EQ(opened(receiver, env), payload_);
}

TEST_F(EnvelopeTest, GroupMacRoundTrip) {
    auto sender = make(pc::AuthMode::kGroupMac);
    auto receiver = make(pc::AuthMode::kGroupMac);
    const pc::Bytes key(32, 0x55);
    sender.set_group_key(key);
    receiver.set_group_key(key);
    auto env = sender.protect(1, payload_, 1.0);
    EXPECT_EQ(receiver.verify_and_open(env, 1.05), pc::VerifyResult::kOk);
}

TEST_F(EnvelopeTest, GroupMacRejectsTamper) {
    auto sender = make(pc::AuthMode::kGroupMac);
    auto receiver = make(pc::AuthMode::kGroupMac);
    const pc::Bytes key(32, 0x55);
    sender.set_group_key(key);
    receiver.set_group_key(key);
    auto env = sender.protect(1, payload_, 1.0);
    env.payload[0] ^= 1;
    EXPECT_EQ(receiver.verify_and_open(env, 1.0), pc::VerifyResult::kBadTag);
}

TEST_F(EnvelopeTest, GroupMacRejectsWrongKey) {
    auto sender = make(pc::AuthMode::kGroupMac);
    auto receiver = make(pc::AuthMode::kGroupMac);
    sender.set_group_key(pc::Bytes(32, 0x55));
    receiver.set_group_key(pc::Bytes(32, 0x56));
    auto env = sender.protect(1, payload_, 1.0);
    EXPECT_EQ(receiver.verify_and_open(env, 1.0), pc::VerifyResult::kBadTag);
}

TEST_F(EnvelopeTest, GroupMacRejectsUnprotected) {
    auto outsider = make(pc::AuthMode::kNone);
    auto receiver = make(pc::AuthMode::kGroupMac);
    receiver.set_group_key(pc::Bytes(32, 0x55));
    auto env = outsider.protect(1, payload_, 1.0);
    EXPECT_EQ(receiver.verify_and_open(env, 1.0),
              pc::VerifyResult::kUnprotected);
}

TEST_F(EnvelopeTest, PairwiseMacRoundTrip) {
    auto sender = make(pc::AuthMode::kPairwiseMac);
    auto receiver = make(pc::AuthMode::kPairwiseMac);
    const pc::Bytes key(32, 0x66);
    sender.set_pairwise_key(2, key);   // key with peer 2 (the receiver)
    receiver.set_pairwise_key(1, key); // key with peer 1 (the sender)
    auto env = sender.protect(1, payload_, 1.0, 2);
    EXPECT_EQ(receiver.verify_and_open(env, 1.0), pc::VerifyResult::kOk);
}

TEST_F(EnvelopeTest, PairwiseMacNoKeyForSender) {
    auto sender = make(pc::AuthMode::kPairwiseMac);
    auto receiver = make(pc::AuthMode::kPairwiseMac);
    sender.set_pairwise_key(2, pc::Bytes(32, 0x66));
    auto env = sender.protect(1, payload_, 1.0, 2);
    EXPECT_EQ(receiver.verify_and_open(env, 1.0), pc::VerifyResult::kNoKey);
}

class SignatureEnvelopeTest : public EnvelopeTest {
protected:
    SignatureEnvelopeTest() : ca_(seed(20)) {
        auto make_cred = [&](NodeId id, std::uint8_t key_seed) {
            pc::Credential cred;
            cred.key = pc::KeyPair::from_seed(seed(key_seed));
            cred.cert = ca_.issue(id, 0, cred.key.public_bytes, 0.0, 1e6);
            return cred;
        };
        sender_ = make(pc::AuthMode::kSignature);
        sender_.set_credential(make_cred(NodeId{1}, 30));
        sender_.set_ca_public_key(ca_.public_key());
        receiver_ = make(pc::AuthMode::kSignature);
        receiver_.set_ca_public_key(ca_.public_key());
    }

    pc::CertificateAuthority ca_;
    pc::MessageProtection sender_;
    pc::MessageProtection receiver_;
};

TEST_F(SignatureEnvelopeTest, RoundTrip) {
    auto env = sender_.protect(1, payload_, 1.0);
    EXPECT_EQ(receiver_.verify_and_open(env, 1.0), pc::VerifyResult::kOk);
}

TEST_F(SignatureEnvelopeTest, VerifiedSerialDoesNotVouchForAnotherKey) {
    // Without a shared cache the receiver memoizes CA checks itself. A
    // certificate that copies a verified one -- serial, subject, validity
    // and CA signature -- around another public key must still fail the CA
    // check, or that key's holder can sign as the victim.
    auto honest = sender_.protect(1, payload_, 1.0);
    const pc::Certificate victim_cert = *honest.cert;
    ASSERT_EQ(receiver_.verify_and_open(honest, 1.0), pc::VerifyResult::kOk);

    pc::Credential forged;
    forged.key = pc::KeyPair::from_seed(seed(31));
    forged.cert = victim_cert;
    forged.cert.public_key = forged.key.public_bytes;
    auto attacker = make(pc::AuthMode::kSignature);
    attacker.set_credential(forged);
    attacker.set_seq_base(100);  // past the victim's replay high-water mark
    auto env = attacker.protect(1, payload_, 1.1);
    EXPECT_EQ(receiver_.verify_and_open(env, 1.1), pc::VerifyResult::kBadCert);

    // The honest certificate stays memoized and keeps verifying.
    auto again = sender_.protect(1, payload_, 1.2);
    EXPECT_EQ(receiver_.verify_and_open(again, 1.2), pc::VerifyResult::kOk);
}

TEST_F(SignatureEnvelopeTest, RejectsTamperedPayload) {
    auto env = sender_.protect(1, payload_, 1.0);
    env.payload[3] ^= 1;
    EXPECT_EQ(receiver_.verify_and_open(env, 1.0), pc::VerifyResult::kBadTag);
}

TEST_F(SignatureEnvelopeTest, RejectsSenderCertMismatch) {
    // Valid credential for id 1 cannot speak as id 99.
    auto env = sender_.protect(99, payload_, 1.0);
    EXPECT_EQ(receiver_.verify_and_open(env, 1.0), pc::VerifyResult::kBadCert);
}

TEST_F(SignatureEnvelopeTest, RejectsRevokedCert) {
    auto env = sender_.protect(1, payload_, 1.0);
    receiver_.crl().revoke(env.cert->serial);
    EXPECT_EQ(receiver_.verify_and_open(env, 1.0), pc::VerifyResult::kRevoked);
}

TEST_F(SignatureEnvelopeTest, RejectsMissingCert) {
    auto env = sender_.protect(1, payload_, 1.0);
    env.cert.reset();
    EXPECT_EQ(receiver_.verify_and_open(env, 1.0), pc::VerifyResult::kBadCert);
}

TEST_F(SignatureEnvelopeTest, ReplayRejected) {
    auto env = sender_.protect(1, payload_, 1.0);
    auto copy = env;
    EXPECT_EQ(receiver_.verify_and_open(env, 1.0), pc::VerifyResult::kOk);
    EXPECT_EQ(receiver_.verify_and_open(copy, 1.1), pc::VerifyResult::kReplay);
}

TEST_F(SignatureEnvelopeTest, StaleTimestampRejected) {
    auto env = sender_.protect(1, payload_, 1.0);
    EXPECT_EQ(receiver_.verify_and_open(env, 5.0), pc::VerifyResult::kStale);
}

TEST_F(SignatureEnvelopeTest, SequenceMustIncrease) {
    auto env1 = sender_.protect(1, payload_, 1.0);
    auto env2 = sender_.protect(1, payload_, 1.1);
    EXPECT_EQ(receiver_.verify_and_open(env2, 1.1), pc::VerifyResult::kOk);
    // env1 has a lower sequence number: replayed even though never seen.
    EXPECT_EQ(receiver_.verify_and_open(env1, 1.15),
              pc::VerifyResult::kReplay);
}

TEST_F(EnvelopeTest, EncryptionHidesPayloadAndRoundTrips) {
    auto sender = make(pc::AuthMode::kGroupMac, /*encrypt=*/true);
    auto receiver = make(pc::AuthMode::kGroupMac, /*encrypt=*/true);
    const pc::Bytes key(32, 0x77);
    sender.set_group_key(key);
    receiver.set_group_key(key);
    auto env = sender.protect(1, payload_, 1.0);
    EXPECT_TRUE(env.encrypted);
    EXPECT_NE(env.payload, payload_);  // ciphertext on the wire
    EXPECT_EQ(receiver.verify_and_open(env, 1.0), pc::VerifyResult::kOk);
    EXPECT_EQ(opened(receiver, env), payload_);
}

TEST_F(EnvelopeTest, EavesdropperWithoutKeyCannotDecrypt) {
    auto sender = make(pc::AuthMode::kGroupMac, /*encrypt=*/true);
    sender.set_group_key(pc::Bytes(32, 0x77));
    auto env = sender.protect(1, payload_, 1.0);
    auto eavesdropper = make(pc::AuthMode::kNone);
    // No key: verify_and_open cannot decrypt.
    EXPECT_EQ(eavesdropper.verify_and_open(env, 1.0),
              pc::VerifyResult::kNoKey);
    EXPECT_NE(env.payload, payload_);
}

TEST_F(EnvelopeTest, ReplayGuardWindow) {
    pc::ReplayGuard guard(0.5);
    EXPECT_EQ(guard.check(1, 1, 10.0, 10.2), pc::VerifyResult::kOk);
    EXPECT_EQ(guard.check(1, 2, 10.0, 10.6), pc::VerifyResult::kStale);
    EXPECT_EQ(guard.check(1, 1, 10.4, 10.5), pc::VerifyResult::kReplay);
    EXPECT_EQ(guard.check(2, 1, 10.4, 10.5), pc::VerifyResult::kOk);
}

}  // namespace
