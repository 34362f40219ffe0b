#include "gauge.hpp"

#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "spans.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 19;  // 4 MiB
constexpr int kIterations = 1 << 19;

}  // namespace

Gauge::Gauge() : table_(kTableWords) {
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = i;
    sample();  // warm the table and the code; not a measurement
    samples_.clear();
}

void Gauge::sample_from_memory() {
#if defined(__x86_64__) || defined(__i386__)
    for (std::size_t i = 0; i < kTableWords; i += 64 / sizeof(std::uint64_t))
        _mm_clflush(&table_[i]);
    _mm_mfence();
#endif
    sample();
}

void Gauge::sample() {
    const std::int64_t start = now_ns();
    std::uint64_t x = state_;
    for (int i = 0; i < kIterations; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        table_[(x >> 33) & (kTableWords - 1)] += x;
    }
    state_ = x;
    samples_.push_back(now_ns() - start);
}

double Gauge::reference_s(const Timing& timing) const {
    if (timing.gauge == 0 || timing.gauge > samples_.size())
        throw std::logic_error("gauge: timing without a sample before it");
    double gauge_ns = static_cast<double>(samples_[timing.gauge - 1]);
    if (timing.gauge < samples_.size())
        gauge_ns = 0.5 * (gauge_ns + static_cast<double>(samples_[timing.gauge]));
    return static_cast<double>(timing.ns) * 1e-9 * kReferenceNs / gauge_ns;
}

}  // namespace perfbench
