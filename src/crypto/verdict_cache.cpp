#include "crypto/verdict_cache.hpp"

#include <algorithm>
#include <cstring>

#include "base/assert.hpp"
#include "obs/counters.hpp"

namespace platoon::crypto {

namespace {
obs::Counter g_cache_hit{"crypto.verdict_cache.hit"};
obs::Counter g_cache_miss{"crypto.verdict_cache.miss"};
obs::Counter g_cache_evict{"crypto.verdict_cache.evict"};

void append_length(Bytes& out, std::size_t n) {
    const std::uint64_t len = n;
    std::uint8_t raw[sizeof len];
    std::memcpy(raw, &len, sizeof len);
    out.insert(out.end(), raw, raw + sizeof len);
}

/// Word-at-a-time multiplicative hash over the parts and their lengths. It
/// only picks a slot: a collision costs a recomputation, never a wrong key.
std::uint64_t preimage_hash(std::span<const BytesView> parts) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t word) {
        h = (h ^ word) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
    };
    for (const BytesView part : parts) {
        mix(part.size());
        std::size_t i = 0;
        for (; i + 8 <= part.size(); i += 8) {
            std::uint64_t word;
            std::memcpy(&word, part.data() + i, 8);
            mix(word);
        }
        if (i < part.size()) {
            std::uint64_t word = 0;
            std::memcpy(&word, part.data() + i, part.size() - i);
            mix(word);
        }
    }
    return h;
}

}  // namespace

FactKeyMemo::FactKeyMemo(std::size_t slots) : slots_(slots) {
    PLATOON_EXPECTS(slots > 0);
}

FactKeyMemo::Slot& FactKeyMemo::slot_for(std::span<const BytesView> parts) {
    return slots_[preimage_hash(parts) % slots_.size()];
}

bool FactKeyMemo::matches(const Bytes& stored,
                          std::span<const BytesView> parts) {
    std::size_t at = 0;
    for (const BytesView part : parts) {
        std::uint64_t len;
        if (stored.size() - at < sizeof len) return false;
        std::memcpy(&len, stored.data() + at, sizeof len);
        at += sizeof len;
        if (len != part.size() || stored.size() - at < len) return false;
        if (!std::equal(part.begin(), part.end(),
                        stored.begin() + static_cast<std::ptrdiff_t>(at)))
            return false;
        at += part.size();
    }
    return at == stored.size();
}

void FactKeyMemo::fill(Slot& slot, std::span<const BytesView> parts,
                       const Key& key) {
    slot.used = true;
    slot.key = key;
    slot.preimage.clear();
    for (const BytesView part : parts) {
        append_length(slot.preimage, part.size());
        slot.preimage.insert(slot.preimage.end(), part.begin(), part.end());
    }
}

bool SignerKeyMemo::verify(BytesView public_key, BytesView msg,
                           const Signature& sig) {
    for (const auto& key : keys_)
        if (std::ranges::equal(key->bytes(), public_key))
            return crypto::verify(*key, msg, sig);
    auto fresh = VerifyingKey::from_bytes(public_key);
    if (!fresh) return false;
    auto key = std::make_unique<const VerifyingKey>(std::move(*fresh));
    const bool ok = crypto::verify(*key, msg, sig);
    if (keys_.size() < kCapacity) {
        keys_.push_back(std::move(key));
    } else {
        keys_[oldest_] = std::move(key);
        oldest_ = (oldest_ + 1) % kCapacity;
    }
    return ok;
}

VerdictCache::VerdictCache(std::size_t capacity) : capacity_(capacity) {
    PLATOON_EXPECTS(capacity_ > 0);
}

std::optional<bool> VerdictCache::lookup(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
        g_cache_miss.inc();
        return std::nullopt;
    }
    g_cache_hit.inc();
    return it->second;
}

void VerdictCache::store(const Key& key, bool valid) {
    const auto [it, inserted] = map_.try_emplace(key, valid);
    if (!inserted) {
        it->second = valid;
        return;
    }
    fifo_.push_back(key);
    if (map_.size() > capacity_) {
        map_.erase(fifo_.front());
        fifo_.pop_front();
        g_cache_evict.inc();
    }
}

}  // namespace platoon::crypto
