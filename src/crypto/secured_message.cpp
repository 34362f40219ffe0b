#include "crypto/secured_message.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "crypto/sha256.hpp"
#include "base/assert.hpp"
#include "obs/counters.hpp"
#include "obs/timer.hpp"

namespace platoon::crypto {

namespace {
obs::Counter g_protect_ops{"crypto.protect"};
obs::Counter g_sign_ops{"crypto.sign"};
obs::Counter g_sig_verifies{"crypto.sig_verifies"};
obs::Counter g_verify_ok{"crypto.verify.ok"};
obs::Counter g_verify_fail{"crypto.verify.fail"};
/// kOk verdicts served entirely from the shared VerdictCache (every
/// consulted fact was a hit, zero fresh crypto this call). Invariant:
/// crypto.verify.ok + crypto.verify.cached equals what crypto.verify.ok
/// was before memoization existed.
obs::Counter g_verify_cached{"crypto.verify.cached"};

using FactKey = VerdictCache::Key;

/// Leading memo part that keeps the three kinds of fact key apart.
constexpr std::uint8_t kMacFact[] = {1};
constexpr std::uint8_t kSigFact[] = {2};
constexpr std::uint8_t kCertFact[] = {3};

/// Appends v's object bytes (memo preimages only: their layout is private
/// to this file; a double contributes its exact bit pattern).
template <class T>
void put(std::uint8_t*& at, T v) {
    std::memcpy(at, &v, sizeof v);
    at += sizeof v;
}

/// The envelope's fixed-width authenticated fields (everything
/// authenticated_bytes() encodes besides the constant label and the
/// payload), as one memo part.
constexpr std::size_t kEnvelopeFieldsSize =
    2 + sizeof(Envelope::sender) + sizeof(Envelope::seq) +
    sizeof(Envelope::timestamp);

std::array<std::uint8_t, kEnvelopeFieldsSize> envelope_fields(
    const Envelope& envelope) {
    std::array<std::uint8_t, kEnvelopeFieldsSize> out{};
    std::uint8_t* at = out.data();
    put(at, static_cast<std::uint8_t>(envelope.mode));
    put(at, static_cast<std::uint8_t>(envelope.encrypted ? 1 : 0));
    put(at, envelope.sender);
    put(at, envelope.seq);
    put(at, envelope.timestamp);
    return out;
}

/// SHA-256 of the envelope's canonical authenticated bytes.
Sha256::Digest authenticated_digest(const Envelope& envelope) {
    Sha256 h;
    const Bytes ab = envelope.authenticated_bytes();
    h.update(BytesView(ab));
    return h.finish();
}

/// Fact: "this envelope's tag is valid under this key material", in the
/// domain `label` (a MAC or a signature) and memo kind `kind`.
FactKey tag_fact_key(BytesView kind, std::string_view label,
                     BytesView key_material, const Envelope& envelope,
                     FactKeyMemo& memo) {
    const auto fields = envelope_fields(envelope);
    return memo.key_for(
        {kind, key_material, fields, envelope.payload, envelope.tag}, [&] {
            Sha256 h;
            h.update(label);
            h.update(key_material);
            const auto ad = authenticated_digest(envelope);
            h.update(BytesView(ad.data(), ad.size()));
            h.update(BytesView(envelope.tag));
            return h.finish();
        });
}

/// Fact: "this tag is a valid MAC over these bytes under this key". Keyed
/// on the key's digest, never the key itself.
FactKey mac_fact_key(BytesView key_digest, const Envelope& envelope,
                     FactKeyMemo& memo) {
    return tag_fact_key(kMacFact, "platoonsec.vc.mac.v1", key_digest,
                        envelope, memo);
}

/// Fact: "this tag is a valid signature over these bytes under this key".
FactKey sig_fact_key(BytesView signer_public_key, const Envelope& envelope,
                     FactKeyMemo& memo) {
    return tag_fact_key(kSigFact, "platoonsec.vc.sig.v1", signer_public_key,
                        envelope, memo);
}

/// Fact: "this certificate's CA signature verifies under this CA key".
/// Time-window and CRL status are deliberately NOT part of the fact -- they
/// depend on `now` and the receiver's CRL and are always checked fresh.
FactKey cert_fact_key(BytesView ca_public_key, const Certificate& cert,
                      FactKeyMemo& memo) {
    // Every tbs() field besides the label and the public key.
    std::array<std::uint8_t,
               sizeof(cert.serial) + sizeof(cert.subject.value) +
                   sizeof(cert.pseudonym_id) + sizeof(cert.valid_from) +
                   sizeof(cert.valid_until)>
        fields{};
    std::uint8_t* at = fields.data();
    put(at, cert.serial);
    put(at, cert.subject.value);
    put(at, cert.pseudonym_id);
    put(at, cert.valid_from);
    put(at, cert.valid_until);
    return memo.key_for(
        {kCertFact, ca_public_key, fields, cert.public_key, cert.ca_signature},
        [&] {
            Sha256 h;
            h.update(std::string_view("platoonsec.vc.cert.v1"));
            h.update(ca_public_key);
            const Bytes tbs = cert.tbs();
            h.update(BytesView(tbs));
            h.update(BytesView(cert.ca_signature));
            return h.finish();
        });
}

/// Marker fact for unprotected envelopes under a kNone policy. The verdict
/// is payload-independent there, so the key packs the header fields
/// directly -- no hashing on the baseline hot path. The leading domain byte
/// keeps packed keys disjoint from digest keys (which are SHA-256 outputs).
FactKey accept_fact_key(const Envelope& envelope) {
    FactKey k{};
    k[0] = 0xA1;
    k[1] = static_cast<std::uint8_t>(envelope.mode);
    k[2] = envelope.encrypted ? 1 : 0;
    std::size_t at = 3;
    for (int i = 0; i < 4; ++i)
        k[at++] = static_cast<std::uint8_t>(envelope.sender >> (8 * i));
    for (int i = 0; i < 8; ++i)
        k[at++] = static_cast<std::uint8_t>(envelope.seq >> (8 * i));
    std::uint64_t ts_bits;
    static_assert(sizeof(ts_bits) == sizeof(envelope.timestamp));
    std::memcpy(&ts_bits, &envelope.timestamp, sizeof(ts_bits));
    for (int i = 0; i < 8; ++i)
        k[at++] = static_cast<std::uint8_t>(ts_bits >> (8 * i));
    const std::uint64_t payload_size = envelope.payload.size();
    for (int i = 0; i < 8; ++i)
        k[at++] = static_cast<std::uint8_t>(payload_size >> (8 * i));
    return k;
}

}  // namespace

const char* to_string(VerifyResult r) {
    switch (r) {
        case VerifyResult::kOk: return "ok";
        case VerifyResult::kUnprotected: return "unprotected";
        case VerifyResult::kBadTag: return "bad-tag";
        case VerifyResult::kBadCert: return "bad-cert";
        case VerifyResult::kRevoked: return "revoked";
        case VerifyResult::kStale: return "stale";
        case VerifyResult::kReplay: return "replay";
        case VerifyResult::kNoKey: return "no-key";
    }
    return "?";
}

Bytes Envelope::authenticated_bytes() const {
    Bytes out;
    append(out, to_bytes("platoonsec.env.v1"));
    out.push_back(static_cast<std::uint8_t>(mode));
    out.push_back(encrypted ? 1 : 0);
    append_u32(out, sender);
    append_u64(out, seq);
    append_f64(out, timestamp);
    append_u64(out, payload.size());
    append(out, payload);
    return out;
}

std::size_t Envelope::wire_size() const {
    // Header (sender, seq, timestamp, flags) + payload + tag + certificate.
    std::size_t size = 4 + 8 + 8 + 2 + payload.size() + tag.size();
    if (cert) size += 64 /*key*/ + 96 /*sig*/ + 28 /*fields*/;
    return size;
}

VerifyResult ReplayGuard::check(std::uint32_t sender, std::uint64_t seq,
                                sim::SimTime timestamp, sim::SimTime now) {
    if (std::abs(now - timestamp) > window_) return VerifyResult::kStale;
    auto [it, inserted] = last_seq_.try_emplace(sender, seq);
    if (!inserted) {
        if (seq <= it->second) return VerifyResult::kReplay;
        it->second = seq;
    }
    return VerifyResult::kOk;
}

bool MessageProtection::cert_signature_valid(const Certificate& cert,
                                             CacheProbe& probe) const {
    if (cache_ != nullptr) {
        const FactKey key =
            cert_fact_key(BytesView(ca_public_key_), cert, cache_->key_memo());
        ++probe.consulted;
        if (const auto hit = cache_->lookup(key)) {
            ++probe.hits;
            return *hit;
        }
        Signature sig{cert.ca_signature};
        g_sig_verifies.inc();
        const bool ok =
            signer_keys().verify(BytesView(ca_public_key_), cert.tbs(), sig);
        cache_->store(key, ok);
        return ok;
    }
    // Keyed on exactly what verify() reads besides the CA key.
    std::pair<Bytes, Bytes> exact{cert.tbs(), cert.ca_signature};
    if (verified_certs_.contains(exact)) return true;
    Signature sig{cert.ca_signature};
    g_sig_verifies.inc();
    if (!signer_keys().verify(BytesView(ca_public_key_), exact.first, sig))
        return false;
    verified_certs_.insert(std::move(exact));
    return true;
}

SignerKeyMemo& MessageProtection::signer_keys() const {
    return cache_ != nullptr ? cache_->signer_keys() : own_signer_keys_;
}

void MessageProtection::set_group_key(BytesView key) {
    if (key.empty()) {
        group_mac_key_.clear();
        encryption_key_.clear();
        group_key_digest_.clear();
        return;
    }
    group_mac_key_ = hkdf(key, {}, "platoon.mac");
    encryption_key_ = hkdf(key, {}, "platoon.enc");
    Sha256 h;
    h.update(std::string_view("platoonsec.vc.key.v1"));
    h.update(key);
    const auto d = h.finish();
    group_key_digest_.assign(d.begin(), d.end());
}

void MessageProtection::set_pairwise_key(std::uint32_t peer, BytesView key) {
    pairwise_mac_keys_[peer] = hkdf(key, {}, "platoon.mac");
}

BytesView MessageProtection::mac_key_for(std::uint32_t peer) const {
    if (config_.mode == AuthMode::kGroupMac) return group_mac_key_;
    const auto it = pairwise_mac_keys_.find(peer);
    if (it == pairwise_mac_keys_.end()) return {};
    return it->second;
}

Bytes MessageProtection::nonce_for(std::uint32_t sender,
                                   std::uint64_t seq) const {
    Bytes nonce;
    append_u32(nonce, sender);
    append_u64(nonce, seq);
    PLATOON_ENSURES(nonce.size() == ChaCha20::kNonceSize);
    return nonce;
}

Envelope MessageProtection::protect(std::uint32_t sender, BytesView payload,
                                    sim::SimTime now,
                                    std::optional<std::uint32_t> receiver) {
    g_protect_ops.inc();
    Envelope env;
    env.mode = config_.mode;
    env.sender = sender;
    env.seq = next_seq_++;
    env.timestamp = now;
    env.payload = Bytes(payload.begin(), payload.end());

    if (config_.encrypt) {
        if (!encryption_key_.empty()) {
            ChaCha20 cipher(BytesView(encryption_key_),
                            BytesView(nonce_for(sender, env.seq)));
            cipher.apply(env.payload);
            env.encrypted = true;
        }
    }

    switch (config_.mode) {
        case AuthMode::kNone:
            break;
        case AuthMode::kGroupMac: {
            PLATOON_EXPECTS(has_group_key());
            env.tag = hmac_tag(mac_key_for(sender),
                               BytesView(env.authenticated_bytes()));
            break;
        }
        case AuthMode::kPairwiseMac: {
            PLATOON_EXPECTS(receiver.has_value());
            const BytesView key = mac_key_for(*receiver);
            PLATOON_EXPECTS(!key.empty());
            env.tag = hmac_tag(key, BytesView(env.authenticated_bytes()));
            break;
        }
        case AuthMode::kSignature: {
            PLATOON_EXPECTS(credential_.has_value());
            g_sign_ops.inc();
            env.tag = sign(credential_->key, env.authenticated_bytes()).bytes;
            env.cert = credential_->cert;
            break;
        }
    }
    return env;
}

VerifyResult MessageProtection::verify_and_open(const Envelope& envelope,
                                                sim::SimTime now) {
    const obs::ScopedTimer timer("crypto.verify");
    plaintext_.clear();
    CacheProbe probe;
    const VerifyResult result = verify_and_open_impl(envelope, now, probe);
    if (result == VerifyResult::kOk) {
        if (probe.consulted > 0 && probe.hits == probe.consulted) {
            g_verify_cached.inc();
        } else {
            g_verify_ok.inc();
        }
    } else {
        g_verify_fail.inc();
    }
    return result;
}

VerifyResult MessageProtection::verify_and_open_impl(const Envelope& envelope,
                                                     sim::SimTime now,
                                                     CacheProbe& probe) {
    if (config_.mode == AuthMode::kNone && cache_ != nullptr) {
        // Pure bookkeeping: an unprotected policy has no crypto to share,
        // but the marker fact still measures the delivery fan-out -- the
        // first receiver of an envelope counts crypto.verify.ok, the rest
        // crypto.verify.cached. The verdict never reads the fact.
        ++probe.consulted;
        if (cache_->lookup(accept_fact_key(envelope)).has_value()) {
            ++probe.hits;
        } else {
            cache_->store(accept_fact_key(envelope), true);
        }
    }
    if (config_.mode != AuthMode::kNone) {
        // A signature is acceptable under any policy that demands
        // authentication (it is strictly stronger than a MAC) -- RSUs sign
        // even when the platoon runs on a group key. Everything else must
        // match the configured mode.
        if (envelope.mode != config_.mode &&
            envelope.mode != AuthMode::kSignature)
            return VerifyResult::kUnprotected;

        switch (envelope.mode) {
            case AuthMode::kNone:
                return VerifyResult::kUnprotected;
            case AuthMode::kGroupMac: {
                if (!has_group_key()) return VerifyResult::kNoKey;
                const auto compute_tag_ok = [&] {
                    const Bytes expected =
                        hmac_tag(mac_key_for(envelope.sender),
                                 BytesView(envelope.authenticated_bytes()));
                    return ct_equal(BytesView(expected),
                                    BytesView(envelope.tag));
                };
                bool tag_ok;
                if (cache_ != nullptr) {
                    // Group-MAC validity is receiver-independent (same key
                    // for everyone); the fact binds the key digest so
                    // differently-keyed receivers cannot alias.
                    const FactKey key =
                        mac_fact_key(BytesView(group_key_digest_), envelope,
                                     cache_->key_memo());
                    ++probe.consulted;
                    if (const auto hit = cache_->lookup(key)) {
                        ++probe.hits;
                        tag_ok = *hit;
                    } else {
                        tag_ok = compute_tag_ok();
                        cache_->store(key, tag_ok);
                    }
                } else {
                    tag_ok = compute_tag_ok();
                }
                if (!tag_ok) return VerifyResult::kBadTag;
                break;
            }
            case AuthMode::kPairwiseMac: {
                // Never cached: the key is per-(sender,receiver), so the
                // verdict is receiver-dependent by construction.
                const BytesView key = mac_key_for(envelope.sender);
                if (key.empty()) return VerifyResult::kNoKey;
                const Bytes expected =
                    hmac_tag(key, BytesView(envelope.authenticated_bytes()));
                if (!ct_equal(BytesView(expected), BytesView(envelope.tag)))
                    return VerifyResult::kBadTag;
                break;
            }
            case AuthMode::kSignature: {
                if (ca_public_key_.empty()) return VerifyResult::kNoKey;
                if (!envelope.cert) return VerifyResult::kBadCert;
                if (!cert_signature_valid(*envelope.cert, probe))
                    return VerifyResult::kBadCert;
                if (now < envelope.cert->valid_from ||
                    now > envelope.cert->valid_until)
                    return VerifyResult::kBadCert;
                // The claimed sender must be the certified identity --
                // otherwise any certificate holder could speak as anyone
                // (identity binding, IEEE 1609.2 semantics).
                if (envelope.cert->subject.value != envelope.sender)
                    return VerifyResult::kBadCert;
                if (crl_.is_revoked(envelope.cert->serial))
                    return VerifyResult::kRevoked;
                const auto compute_sig_ok = [&] {
                    Signature sig{envelope.tag};
                    g_sig_verifies.inc();
                    return signer_keys().verify(
                        BytesView(envelope.cert->public_key),
                        envelope.authenticated_bytes(), sig);
                };
                bool sig_ok;
                if (cache_ != nullptr) {
                    const FactKey key =
                        sig_fact_key(BytesView(envelope.cert->public_key),
                                     envelope, cache_->key_memo());
                    ++probe.consulted;
                    if (const auto hit = cache_->lookup(key)) {
                        ++probe.hits;
                        sig_ok = *hit;
                    } else {
                        sig_ok = compute_sig_ok();
                        cache_->store(key, sig_ok);
                    }
                } else {
                    sig_ok = compute_sig_ok();
                }
                if (!sig_ok) return VerifyResult::kBadTag;
                break;
            }
        }

        if (config_.check_replay) {
            // Never cached: freshness depends on `now` and this receiver's
            // per-sender high-water mark. A replayed envelope must fail
            // here even when every authenticity fact above was a cache hit.
            const VerifyResult fresh = replay_guard_.check(
                envelope.sender, envelope.seq, envelope.timestamp, now);
            if (fresh != VerifyResult::kOk) return fresh;
        }
    }

    if (envelope.encrypted) {
        // Never cached: decryption outcome depends on this receiver's key
        // material. The wire bytes stay untouched (relays forward them).
        if (encryption_key_.empty()) return VerifyResult::kNoKey;
        ChaCha20 cipher(BytesView(encryption_key_),
                        BytesView(nonce_for(envelope.sender, envelope.seq)));
        plaintext_.assign(envelope.payload.begin(), envelope.payload.end());
        cipher.apply(plaintext_);
    }
    return VerifyResult::kOk;
}

void prewarm_signature_verdicts(const Envelope& envelope,
                                BytesView ca_public_key, VerdictCache& cache,
                                const ScalarBits& scalar_bits) {
    if (envelope.mode != AuthMode::kSignature || !envelope.cert ||
        ca_public_key.empty())
        return;
    const Certificate& cert = *envelope.cert;
    FactKeyMemo& memo = cache.key_memo();
    const FactKey cert_key = cert_fact_key(ca_public_key, cert, memo);
    const FactKey sig_key =
        sig_fact_key(BytesView(cert.public_key), envelope, memo);
    const auto cert_known = cache.lookup(cert_key);
    const auto sig_known = cache.lookup(sig_key);
    if (cert_known.has_value() && sig_known.has_value()) return;
    if (!cert_known.has_value() && !sig_known.has_value()) {
        // Both facts unknown (typically the first beacon from a sender):
        // settle the certificate chain and the message signature with one
        // batch equation; bisection recovers exact per-item verdicts when
        // either is forged, so the cached booleans match plain verify.
        std::vector<BatchItem> batch(2);
        batch[0].public_key = Bytes(ca_public_key.begin(),
                                    ca_public_key.end());
        batch[0].msg = cert.tbs();
        batch[0].sig = Signature{cert.ca_signature};
        batch[1].public_key = cert.public_key;
        batch[1].msg = envelope.authenticated_bytes();
        batch[1].sig = Signature{envelope.tag};
        const std::vector<bool> verdicts =
            batch_verify_each(batch, scalar_bits);
        cache.store(cert_key, verdicts[0]);
        cache.store(sig_key, verdicts[1]);
        return;
    }
    // Exactly one fact missing (steady state: known cert, fresh message):
    // a single verification, counted like the receiver-side one it replaces.
    g_sig_verifies.inc();
    SignerKeyMemo& signers = cache.signer_keys();
    if (!cert_known.has_value()) {
        cache.store(cert_key, signers.verify(ca_public_key, cert.tbs(),
                                             Signature{cert.ca_signature}));
    } else {
        cache.store(sig_key,
                    signers.verify(BytesView(cert.public_key),
                                   envelope.authenticated_bytes(),
                                   Signature{envelope.tag}));
    }
}

}  // namespace platoon::crypto
