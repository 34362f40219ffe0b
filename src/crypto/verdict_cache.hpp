// Shared-verdict memoization for receiver-independent crypto facts.
//
// A signature (or group-MAC) check over (key material, authenticated bytes,
// tag) does not depend on which receiver performs it, so N receivers of one
// broadcast envelope can share a single verification. The cache stores those
// *facts* -- "this cert's CA signature is valid", "this tag verifies under
// this key" -- keyed by a 32-byte digest that binds all inputs, never a
// combined VerifyResult: per-receiver checks (cert time window, CRL, replay
// freshness, pairwise-MAC, decryption) are evaluated fresh on every call, so
// heterogeneous receivers and time-dependent verdicts stay exact.
//
// Computing a fact key hashes the certificate or envelope it binds, which
// costs several SHA-256 blocks -- as much as every receiver but the first
// would otherwise pay. So the cache also carries a FactKeyMemo: a small,
// bounded map from each key's exact preimage to the key. The network's
// prewarm fills it before a fan-out, and every receiver then finds its keys
// there after a byte-for-byte comparison. The memo changes no key and no
// lookup: every VerdictCache lookup and store still happens, in order.
//
// A signature fact that misses still needs a verification, and the signers
// repeat: each key signs hundreds of beacons per run. So the cache also
// carries a SignerKeyMemo: at most 16 VerifyingKeys (the comb of each
// signer's negated key, 30.6 KB apiece, 0.5 MB in all) found by their exact
// 64 public-key bytes. Certificate checks, receivers' message checks and
// the prewarm's single verifications go through it; a hit changes cost,
// never a verdict.
//
// All three are bounded and fully deterministic: one instance is shared by
// all receivers of a Scenario (never static or thread_local), lookups never
// iterate a map (the signer memo scans its slots for an exact match, and
// for nothing else), the cache and the signer memo evict in insertion
// order and a fact-key memo slot depends only on the preimage it holds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/eddsa.hpp"

namespace platoon::crypto {

/// Fact keys by their exact preimage: the sequence of byte strings (key
/// material, encoded fields, payload, tag) a key is a digest of. A hit
/// requires every part to match the stored preimage byte for byte, lengths
/// included, so no attacker-chosen field -- a serial, a sequence number --
/// can stand in for the rest. Direct-mapped: a store replaces whatever held
/// its slot. It changes cost only; the key returned is always the one
/// `compute` would return.
class FactKeyMemo {
public:
    using Key = std::array<std::uint8_t, 32>;

    explicit FactKeyMemo(std::size_t slots = 256);

    /// The key of `preimage`: memoized when a stored preimage matches it
    /// exactly, else `compute()`, which is then stored. Callers must pass
    /// the same part layout for the same kind of key, and lead with a part
    /// that tells the kinds apart.
    template <class Compute>
    Key key_for(std::initializer_list<BytesView> preimage, Compute&& compute) {
        const std::span<const BytesView> parts(preimage.begin(),
                                               preimage.size());
        Slot& slot = slot_for(parts);
        if (slot.used && matches(slot.preimage, parts)) return slot.key;
        const Key key = compute();
        fill(slot, parts, key);
        return key;
    }

private:
    struct Slot {
        bool used = false;
        Key key{};
        Bytes preimage;  ///< Each part as an 8-byte length, then its bytes.
    };

    Slot& slot_for(std::span<const BytesView> parts);
    static bool matches(const Bytes& stored, std::span<const BytesView> parts);
    static void fill(Slot& slot, std::span<const BytesView> parts,
                     const Key& key);

    std::vector<Slot> slots_;
};

/// Verifying keys by their exact public-key bytes, for signers verified
/// many times. Holds at most kCapacity keys; a new key replaces the oldest
/// once full. A lookup compares all 64 bytes, so a signature is only ever
/// checked against the comb of the key it names.
class SignerKeyMemo {
public:
    static constexpr std::size_t kCapacity = 16;

    /// crypto::verify(public_key, msg, sig), on the key's memoised comb
    /// (built on first sight). Same verdict for every input; a key that
    /// does not decode is rejected without being stored.
    [[nodiscard]] bool verify(BytesView public_key, BytesView msg,
                              const Signature& sig);

    [[nodiscard]] std::size_t size() const { return keys_.size(); }

private:
    std::vector<std::unique_ptr<const VerifyingKey>> keys_;
    std::size_t oldest_ = 0;  ///< Slot the next new key replaces when full.
};

class VerdictCache {
public:
    /// 32-byte fact key (a domain-separated SHA-256 digest, or a packed
    /// header for the trivial-accept fact; see secured_message.cpp).
    using Key = FactKeyMemo::Key;

    explicit VerdictCache(std::size_t capacity = 4096);

    /// The cached truth value of a fact, or nullopt when unknown.
    [[nodiscard]] std::optional<bool> lookup(const Key& key);

    /// Records a fact, evicting the oldest entry when full. Re-storing an
    /// existing key updates the value without changing eviction order.
    void store(const Key& key, bool valid);

    [[nodiscard]] std::size_t size() const { return map_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

    /// The memo of fact keys shared by the same receivers.
    [[nodiscard]] FactKeyMemo& key_memo() { return key_memo_; }
    /// The verifying keys of the signers these receivers hear.
    [[nodiscard]] SignerKeyMemo& signer_keys() { return signer_keys_; }

private:
    struct KeyHash {
        std::size_t operator()(const Key& k) const {
            // Keys are digests (or include one); the first 8 bytes are
            // already uniformly distributed.
            std::uint64_t h = 0;
            for (int i = 0; i < 8; ++i)
                h |= static_cast<std::uint64_t>(k[static_cast<std::size_t>(i)])
                     << (8 * i);
            return static_cast<std::size_t>(h);
        }
    };

    std::size_t capacity_;
    // Lookup only -- never iterated, so unordered storage cannot leak
    // nondeterminism into verdicts or counters.
    std::unordered_map<Key, bool, KeyHash> map_;
    std::deque<Key> fifo_;  ///< Insertion order, drives eviction.
    FactKeyMemo key_memo_;
    SignerKeyMemo signer_keys_;
};

}  // namespace platoon::crypto
