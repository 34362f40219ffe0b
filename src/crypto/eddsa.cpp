#include "crypto/eddsa.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "crypto/sha256.hpp"
#include "base/assert.hpp"
#include "obs/counters.hpp"

namespace platoon::crypto {

namespace {

using u128 = unsigned __int128;
constexpr std::uint64_t kMask = (1ull << 51) - 1;

/// One pass of carry propagation with the 19-fold wraparound at the top.
void carry_pass(Fe& f) {
    std::uint64_t c;
    c = f.limb[0] >> 51; f.limb[0] &= kMask; f.limb[1] += c;
    c = f.limb[1] >> 51; f.limb[1] &= kMask; f.limb[2] += c;
    c = f.limb[2] >> 51; f.limb[2] &= kMask; f.limb[3] += c;
    c = f.limb[3] >> 51; f.limb[3] &= kMask; f.limb[4] += c;
    c = f.limb[4] >> 51; f.limb[4] &= kMask; f.limb[0] += 19 * c;
}

/// Fully reduces limbs into [0, p).
Fe fe_canonical(const Fe& a) {
    Fe f = a;
    // Carry until every limb fits in 51 bits (the wraparound adds at most
    // 19*carry to limb 0, so this converges in a couple of passes; the bound
    // of 10 is a safety net, not a tuning parameter).
    for (int pass = 0; pass < 10; ++pass) {
        carry_pass(f);
        bool clean = true;
        for (const auto limb : f.limb) clean = clean && limb <= kMask;
        if (clean) break;
    }
    for (const auto limb : f.limb) PLATOON_ASSERT(limb <= kMask);
    // Now the value is < 2^255 (< 2p); conditionally subtract p once.
    const bool ge_p = f.limb[4] == kMask && f.limb[3] == kMask &&
                      f.limb[2] == kMask && f.limb[1] == kMask &&
                      f.limb[0] >= kMask - 18;  // 2^51 - 19
    if (ge_p) {
        f.limb[0] -= kMask - 18;
        f.limb[1] = f.limb[2] = f.limb[3] = f.limb[4] = 0;
    }
    return f;
}

/// (p + 3) / 8 = 2^252 - 2, the square-root exponent.
constexpr U256 kExpSqrt = [] {
    U256 e;
    e.w = {0xFFFFFFFFFFFFFFFEull, ~0ull, ~0ull, 0x0FFFFFFFFFFFFFFFull};
    return e;
}();

/// (p - 1) / 4 = 2^253 - 5: 2 raised to it is a square root of -1.
constexpr U256 kExpSqrtMinusOne = [] {
    U256 e;
    e.w = {0xFFFFFFFFFFFFFFFBull, ~0ull, ~0ull, 0x1FFFFFFFFFFFFFFFull};
    return e;
}();

/// a^(2^n): n successive squarings.
Fe fe_sq_times(Fe a, int n) {
    for (int i = 0; i < n; ++i) a = fe_sq(a);
    return a;
}

const Fe& sqrt_minus_one() {
    static const Fe s = fe_pow(Fe::from_u64(2), kExpSqrtMinusOne);
    return s;
}

const Fe& curve_d() {
    // d = -121665 / 121666 mod p
    static const Fe d =
        fe_mul(fe_neg(Fe::from_u64(121665)), fe_inv(Fe::from_u64(121666)));
    return d;
}

const Fe& curve_2d() {
    static const Fe d2 = fe_add(curve_d(), curve_d());
    return d2;
}

}  // namespace

Fe fe_add(const Fe& a, const Fe& b) {
    Fe r;
    for (int i = 0; i < 5; ++i)
        r.limb[static_cast<std::size_t>(i)] =
            a.limb[static_cast<std::size_t>(i)] +
            b.limb[static_cast<std::size_t>(i)];
    carry_pass(r);
    return r;
}

Fe fe_sub(const Fe& a, const Fe& b) {
    // a + 2p - b keeps limbs non-negative (inputs have limbs < 2^52).
    static constexpr std::uint64_t k2p0 = 0xFFFFFFFFFFFDAull;   // 2*(2^51-19)
    static constexpr std::uint64_t k2pi = 0xFFFFFFFFFFFFEull;   // 2*(2^51-1)
    Fe r;
    r.limb[0] = a.limb[0] + k2p0 - b.limb[0];
    for (std::size_t i = 1; i < 5; ++i)
        r.limb[i] = a.limb[i] + k2pi - b.limb[i];
    carry_pass(r);
    return r;
}

Fe fe_neg(const Fe& a) { return fe_sub(Fe::zero(), a); }

namespace {

/// Carries five wide limb sums into 51-bit limbs, folding the top carry
/// back with the factor 19 (2^255 = 19 mod p): the tail of fe_mul/fe_sq.
Fe carry_wide(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
    u128 c;
    c = r0 >> 51; r0 &= kMask; r1 += c;
    c = r1 >> 51; r1 &= kMask; r2 += c;
    c = r2 >> 51; r2 &= kMask; r3 += c;
    c = r3 >> 51; r3 &= kMask; r4 += c;
    c = r4 >> 51; r4 &= kMask; r0 += 19 * c;
    c = r0 >> 51; r0 &= kMask; r1 += c;

    Fe out;
    out.limb[0] = static_cast<std::uint64_t>(r0);
    out.limb[1] = static_cast<std::uint64_t>(r1);
    out.limb[2] = static_cast<std::uint64_t>(r2);
    out.limb[3] = static_cast<std::uint64_t>(r3);
    out.limb[4] = static_cast<std::uint64_t>(r4);
    return out;
}

}  // namespace

Fe fe_mul(const Fe& f, const Fe& g) {
    const u128 f0 = f.limb[0], f1 = f.limb[1], f2 = f.limb[2],
               f3 = f.limb[3], f4 = f.limb[4];
    const std::uint64_t g0 = g.limb[0], g1 = g.limb[1], g2 = g.limb[2],
                        g3 = g.limb[3], g4 = g.limb[4];
    const std::uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3,
                        g4_19 = 19 * g4;

    return carry_wide(
        f0 * g0 + f1 * g4_19 + f2 * g3_19 + f3 * g2_19 + f4 * g1_19,
        f0 * g1 + f1 * g0 + f2 * g4_19 + f3 * g3_19 + f4 * g2_19,
        f0 * g2 + f1 * g1 + f2 * g0 + f3 * g4_19 + f4 * g3_19,
        f0 * g3 + f1 * g2 + f2 * g1 + f3 * g0 + f4 * g4_19,
        f0 * g4 + f1 * g3 + f2 * g2 + f3 * g1 + f4 * g0);
}

Fe fe_sq(const Fe& f) {
    // fe_mul(f, f) with the symmetric products folded: each sum is the
    // same integer, so carry_wide yields the same limbs.
    const u128 f0 = f.limb[0], f1 = f.limb[1], f2 = f.limb[2],
               f3 = f.limb[3], f4 = f.limb[4];
    const std::uint64_t f0_2 = 2 * f.limb[0], f1_2 = 2 * f.limb[1],
                        f1_38 = 38 * f.limb[1], f2_38 = 38 * f.limb[2],
                        f3_38 = 38 * f.limb[3], f3_19 = 19 * f.limb[3],
                        f4_19 = 19 * f.limb[4];

    return carry_wide(f0 * f0 + f1_38 * f4 + f2_38 * f3,
                      f0_2 * f1 + f2_38 * f4 + f3_19 * f3,
                      f0_2 * f2 + f1 * f1 + f3_38 * f4,
                      f0_2 * f3 + f1_2 * f2 + f4_19 * f4,
                      f0_2 * f4 + f1_2 * f3 + f2 * f2);
}

Fe fe_pow(const Fe& a, const U256& e) {
    Fe result = Fe::one();
    bool started = false;
    for (int i = e.top_bit(); i >= 0; --i) {
        if (started) result = fe_sq(result);
        if (e.bit(i)) {
            result = started ? fe_mul(result, a) : a;
            started = true;
        }
    }
    return result;
}

Fe fe_inv(const Fe& z) {
    PLATOON_EXPECTS(!fe_is_zero(z));
    // ref10 fe_invert: z^(p-2) = z^(2^255 - 21). Comments give exponents.
    const Fe z2 = fe_sq(z);                                   // 2
    const Fe z9 = fe_mul(fe_sq_times(z2, 2), z);              // 9
    const Fe z11 = fe_mul(z9, z2);                            // 11
    const Fe z_5_0 = fe_mul(fe_sq(z11), z9);                  // 2^5 - 1
    const Fe z_10_0 = fe_mul(fe_sq_times(z_5_0, 5), z_5_0);   // 2^10 - 1
    const Fe z_20_0 = fe_mul(fe_sq_times(z_10_0, 10), z_10_0);
    const Fe z_40_0 = fe_mul(fe_sq_times(z_20_0, 20), z_20_0);
    const Fe z_50_0 = fe_mul(fe_sq_times(z_40_0, 10), z_10_0);
    const Fe z_100_0 = fe_mul(fe_sq_times(z_50_0, 50), z_50_0);
    const Fe z_200_0 = fe_mul(fe_sq_times(z_100_0, 100), z_100_0);
    const Fe z_250_0 = fe_mul(fe_sq_times(z_200_0, 50), z_50_0);
    return fe_mul(fe_sq_times(z_250_0, 5), z11);  // 2^255 - 32 + 11
}

std::optional<Fe> fe_sqrt(const Fe& a) {
    if (fe_is_zero(a)) return Fe::zero();
    Fe candidate = fe_pow(a, kExpSqrt);
    if (fe_equal(fe_sq(candidate), a)) return candidate;
    candidate = fe_mul(candidate, sqrt_minus_one());
    if (fe_equal(fe_sq(candidate), a)) return candidate;
    return std::nullopt;
}

Bytes fe_to_bytes(const Fe& a) {
    const Fe f = fe_canonical(a);
    Bytes out(32, 0);
    // Pack 5x51 bits little-endian.
    u128 acc = 0;
    int acc_bits = 0;
    std::size_t idx = 0;
    for (int i = 0; i < 5; ++i) {
        acc |= static_cast<u128>(f.limb[static_cast<std::size_t>(i)])
               << acc_bits;
        acc_bits += 51;
        while (acc_bits >= 8 && idx < 32) {
            out[idx++] = static_cast<std::uint8_t>(acc);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    while (idx < 32) {
        out[idx++] = static_cast<std::uint8_t>(acc);
        acc >>= 8;
    }
    return out;
}

Fe fe_from_bytes(BytesView b) {
    PLATOON_EXPECTS(b.size() == 32);
    u128 acc = 0;
    int acc_bits = 0;
    std::size_t idx = 0;
    Fe f;
    for (int i = 0; i < 5; ++i) {
        while (acc_bits < 51 && idx < 32) {
            acc |= static_cast<u128>(b[idx++]) << acc_bits;
            acc_bits += 8;
        }
        f.limb[static_cast<std::size_t>(i)] =
            static_cast<std::uint64_t>(acc) & kMask;
        acc >>= 51;
        acc_bits -= 51;
        if (acc_bits < 0) acc_bits = 0;
    }
    // Drop the top (256th) bit implicitly; re-reduce.
    carry_pass(f);
    return f;
}

bool fe_equal(const Fe& a, const Fe& b) {
    return fe_canonical(a).limb == fe_canonical(b).limb;
}

bool fe_is_zero(const Fe& a) { return fe_canonical(a).limb == Fe::zero().limb; }

Point Point::identity() {
    return Point{Fe::zero(), Fe::one(), Fe::one(), Fe::zero()};
}

namespace {

/// A point in ref10's cached form (ge_cached): adding it to an extended
/// point takes 8 multiplies instead of 9, because 2d*T is stored.
struct CachedPoint {
    Fe y_plus_x, y_minus_x, z2, t2d;  ///< (Y+X, Y-X, 2Z, 2d*T)
};

/// (X : Y : Z) without T (ge_p2): all a doubling reads.
struct ProjectivePoint {
    Fe x, y, z;
};

/// A sum or double before its final multiplies (ge_p1p1): the point is
/// (E*F : G*H : F*G) with T = E*H.
struct CompletedPoint {
    Fe e, f, g, h;
};

CachedPoint to_cached(const Point& p) {
    return CachedPoint{fe_add(p.y, p.x), fe_sub(p.y, p.x), fe_add(p.z, p.z),
                       fe_mul(p.t, curve_2d())};
}

/// Extended coordinates: 4 multiplies. Use when an addition follows.
Point to_extended(const CompletedPoint& c) {
    return Point{fe_mul(c.e, c.f), fe_mul(c.g, c.h), fe_mul(c.f, c.g),
                 fe_mul(c.e, c.h)};
}

/// Projective coordinates: 3 multiplies. Use when a doubling follows.
ProjectivePoint to_projective(const CompletedPoint& c) {
    return ProjectivePoint{fe_mul(c.e, c.f), fe_mul(c.g, c.h),
                           fe_mul(c.f, c.g)};
}

/// p + q (RFC 8032 "add-2008-hwcd-3"; complete on edwards25519).
CompletedPoint add_cached(const Point& p, const CachedPoint& q) {
    const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
    const Fe b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
    const Fe c = fe_mul(p.t, q.t2d);
    const Fe d = fe_mul(p.z, q.z2);
    return CompletedPoint{fe_sub(b, a), fe_sub(d, c), fe_add(d, c),
                          fe_add(b, a)};
}

/// p + q for an affine q: D = 2*Z1 needs no multiply.
CompletedPoint add_affine(const Point& p, const AffineCachedPoint& q) {
    const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
    const Fe b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
    const Fe c = fe_mul(p.t, q.xy2d);
    const Fe d = fe_add(p.z, p.z);
    return CompletedPoint{fe_sub(b, a), fe_sub(d, c), fe_add(d, c),
                          fe_add(b, a)};
}

/// 2p ("dbl-2008-hwcd", a = -1, signs folded); reads X, Y, Z only.
CompletedPoint double_completed(const Fe& x, const Fe& y, const Fe& z) {
    const Fe a = fe_sq(x);
    const Fe b = fe_sq(y);
    const Fe zz = fe_sq(z);
    const Fe c = fe_add(zz, zz);
    const Fe h = fe_add(a, b);
    const Fe e = fe_sub(h, fe_sq(fe_add(x, y)));
    const Fe g = fe_sub(a, b);
    const Fe f = fe_add(c, g);
    return CompletedPoint{e, f, g, h};
}

/// 2^n p for n >= 1: n doublings, of which only the last computes T.
Point double_times(const Point& p, int n) {
    ProjectivePoint q{p.x, p.y, p.z};
    for (int i = 1; i < n; ++i)
        q = to_projective(double_completed(q.x, q.y, q.z));
    return to_extended(double_completed(q.x, q.y, q.z));
}

}  // namespace

Point point_add(const Point& p, const Point& q) {
    return to_extended(add_cached(p, to_cached(q)));
}

Point point_double(const Point& p) {
    return to_extended(double_completed(p.x, p.y, p.z));
}

Point point_neg(const Point& p) {
    return Point{fe_neg(p.x), p.y, p.z, fe_neg(p.t)};
}

namespace {

/// 15-entry window table: t[j-1] = j*P for j in 1..15, in cached form.
using WindowTable = std::array<CachedPoint, 15>;

WindowTable window_table(const Point& p) {
    WindowTable t;
    t[0] = to_cached(p);
    Point multiple = point_double(p);
    t[1] = to_cached(multiple);
    for (std::size_t j = 2; j < 15; ++j) {
        multiple = to_extended(add_cached(multiple, t[0]));
        t[j] = to_cached(multiple);
    }
    return t;
}

/// Column digits of k on an 8-tooth comb: bit j of digit c is bit
/// 32j + c of k. Tooth j spans bits [32j, 32j + 32), the half of word j/2
/// selected by j's parity.
using CombDigits = std::array<std::uint8_t, FixedBaseComb::kSpacing>;

CombDigits comb_digits(const U256& k) {
    CombDigits digits{};
    for (int j = 0; j < FixedBaseComb::kTeeth; ++j) {
        const std::uint64_t tooth =
            k.w[static_cast<std::size_t>(j / 2)] >> (32 * (j % 2));
        for (int c = 0; c < FixedBaseComb::kSpacing; ++c)
            digits[static_cast<std::size_t>(c)] |= static_cast<std::uint8_t>(
                ((tooth >> c) & 1u) << j);
    }
    return digits;
}

/// Sum of k_i * P_i over N combs in one pass over the 32 columns, most
/// significant first: one doubling per column after the first, shared by
/// every term, then at most one mixed addition per term. The running sum
/// stays in completed form, so each step pays only for the coordinates the
/// next one reads: X, Y, Z before a doubling, T as well before an addition.
template <std::size_t N>
Point comb_pass(const std::array<const FixedBaseComb*, N>& combs,
                const std::array<CombDigits, N>& digits) {
    // The identity, (0 : 1 : 1 : 0) once its final multiplies are done.
    CompletedPoint sum{Fe::zero(), Fe::one(), Fe::one(), Fe::one()};
    for (int c = FixedBaseComb::kSpacing - 1; c >= 0; --c) {
        if (c != FixedBaseComb::kSpacing - 1) {
            const ProjectivePoint p = to_projective(sum);
            sum = double_completed(p.x, p.y, p.z);
        }
        for (std::size_t i = 0; i < N; ++i) {
            const unsigned m = digits[i][static_cast<std::size_t>(c)];
            if (m != 0) sum = add_affine(to_extended(sum), combs[i]->entry(m));
        }
    }
    return to_extended(sum);
}

const FixedBaseComb& base_point_comb() {
    static const FixedBaseComb comb(base_point());
    return comb;
}

}  // namespace

FixedBaseComb::FixedBaseComb(const Point& p) {
    // The teeth 2^(32j) P first, then every other entry as the entry
    // without its lowest tooth plus that tooth, all in extended
    // coordinates.
    std::vector<Point> multiples(kEntries);
    std::array<CachedPoint, kTeeth> teeth;
    Point tooth = p;
    for (int j = 0; j < kTeeth; ++j) {
        if (j > 0) tooth = double_times(tooth, kSpacing);
        multiples[(std::size_t{1} << j) - 1] = tooth;
        teeth[static_cast<std::size_t>(j)] = to_cached(tooth);
    }
    for (unsigned m = 1; m <= kEntries; ++m) {
        const unsigned lowest = m & (~m + 1);
        if (m == lowest) continue;
        multiples[m - 1] = to_extended(
            add_cached(multiples[m - lowest - 1],
                       teeth[static_cast<std::size_t>(std::countr_zero(m))]));
    }
    // Normalise to Z = 1 with one shared inversion (Montgomery's trick):
    // prefix[i] = Z_0 * ... * Z_i, one inversion, then walk back.
    std::vector<Fe> prefix(kEntries);
    Fe running = Fe::one();
    for (std::size_t i = 0; i < kEntries; ++i) {
        running = fe_mul(running, multiples[i].z);
        prefix[i] = running;
    }
    Fe inv = fe_inv(running);  // (Z_0 * ... * Z_{n-1})^-1
    for (std::size_t k = kEntries; k > 0; --k) {
        const std::size_t i = k - 1;
        const Fe zinv = i > 0 ? fe_mul(inv, prefix[i - 1]) : inv;
        inv = fe_mul(inv, multiples[i].z);
        const Fe x = fe_mul(multiples[i].x, zinv);
        const Fe y = fe_mul(multiples[i].y, zinv);
        entries_[i] = AffineCachedPoint{fe_add(y, x), fe_sub(y, x),
                                        fe_mul(fe_mul(x, y), curve_2d())};
    }
}

Point comb_mul(const U256& k, const FixedBaseComb& comb) {
    return comb_pass<1>({&comb}, {comb_digits(k)});
}

Point scalar_mul_base(const U256& k) { return comb_mul(k, base_point_comb()); }

Point scalar_mul_windowed(const U256& k, const Point& p) {
    return multi_scalar_mul({{k, p}});
}

Point multi_scalar_mul(const std::vector<std::pair<U256, Point>>& terms) {
    // Straus interleaving: per-term window tables, one shared doubling chain.
    std::vector<WindowTable> tables;
    tables.reserve(terms.size());
    int top = -1;
    for (const auto& [k, p] : terms) {
        tables.push_back(window_table(p));
        top = std::max(top, k.top_bit());
    }
    if (top < 0) return Point::identity();
    const int top_window = top / 4;
    Point acc = Point::identity();
    for (int w = top_window; w >= 0; --w) {
        if (w != top_window) acc = double_times(acc, 4);
        for (std::size_t i = 0; i < terms.size(); ++i) {
            const unsigned digit = terms[i].first.window4(w);
            if (digit != 0)
                acc = to_extended(add_cached(acc, tables[i][digit - 1]));
        }
    }
    return acc;
}

bool point_equal(const Point& p, const Point& q) {
    // x1/z1 == x2/z2  <=>  x1 z2 == x2 z1 ; same for y.
    return fe_equal(fe_mul(p.x, q.z), fe_mul(q.x, p.z)) &&
           fe_equal(fe_mul(p.y, q.z), fe_mul(q.y, p.z));
}

Bytes point_to_bytes(const Point& p) {
    const Fe zinv = fe_inv(p.z);
    const Fe x = fe_mul(p.x, zinv);
    const Fe y = fe_mul(p.y, zinv);
    Bytes out = fe_to_bytes(x);
    append(out, fe_to_bytes(y));
    return out;
}

std::optional<Point> point_from_bytes(BytesView b) {
    if (b.size() != 64) return std::nullopt;
    Point p;
    p.x = fe_from_bytes(b.subspan(0, 32));
    p.y = fe_from_bytes(b.subspan(32, 32));
    p.z = Fe::one();
    p.t = fe_mul(p.x, p.y);
    if (!on_curve(p)) return std::nullopt;
    return p;
}

bool on_curve(const Point& p) {
    // Projective check: (Y^2 - X^2) Z^2 == Z^4 + d X^2 Y^2, and T Z == X Y.
    const Fe x2 = fe_sq(p.x);
    const Fe y2 = fe_sq(p.y);
    const Fe z2 = fe_sq(p.z);
    const Fe lhs = fe_mul(fe_sub(y2, x2), z2);
    const Fe rhs = fe_add(fe_sq(z2), fe_mul(curve_d(), fe_mul(x2, y2)));
    if (!fe_equal(lhs, rhs)) return false;
    return fe_equal(fe_mul(p.t, p.z), fe_mul(p.x, p.y));
}

const Point& base_point() {
    static const Point b = [] {
        const Fe y = fe_mul(Fe::from_u64(4), fe_inv(Fe::from_u64(5)));
        // x^2 = (y^2 - 1) / (d y^2 + 1)
        const Fe y2 = fe_sq(y);
        const Fe num = fe_sub(y2, Fe::one());
        const Fe den = fe_add(fe_mul(curve_d(), y2), Fe::one());
        const auto x_opt = fe_sqrt(fe_mul(num, fe_inv(den)));
        PLATOON_ASSERT(x_opt.has_value());
        Fe x = *x_opt;
        // RFC 8032 base point has even x (its canonical encoding ends in
        // an even byte); pick that root.
        if (fe_to_bytes(x)[0] & 1) x = fe_neg(x);
        Point p{x, y, Fe::one(), fe_mul(x, y)};
        PLATOON_ASSERT(on_curve(p));
        return p;
    }();
    return b;
}

const U256& group_order() { return kGroupOrder; }

namespace {

U256 hash_to_scalar(std::initializer_list<BytesView> parts) {
    Sha256 h;
    h.update(std::string_view("platoonsec.scalar.v1"));
    for (const auto& p : parts) h.update(p);
    const auto digest = h.finish();
    return mod_l(U256::from_le_bytes(BytesView(digest.data(), digest.size())));
}

}  // namespace

KeyPair KeyPair::from_seed(BytesView seed32) {
    KeyPair kp;
    kp.secret = hash_to_scalar({seed32});
    if (kp.secret.is_zero()) kp.secret = U256(1);
    kp.public_key = scalar_mul_base(kp.secret);
    kp.public_bytes = point_to_bytes(kp.public_key);
    return kp;
}

Signature sign(const KeyPair& key, BytesView msg) {
    const Bytes secret_bytes = key.secret.to_le_bytes();
    const U256 r = hash_to_scalar({BytesView(secret_bytes), msg});
    const U256 r_eff = r.is_zero() ? U256(1) : r;
    const Point big_r = scalar_mul_base(r_eff);
    const Bytes r_bytes = point_to_bytes(big_r);
    const U256 e = hash_to_scalar(
        {BytesView(r_bytes), BytesView(key.public_bytes), msg});
    const U256 s = add_mod(r_eff, mul_mod_l(e, key.secret), group_order());

    Signature sig;
    sig.bytes = r_bytes;
    append(sig.bytes, s.to_le_bytes());
    PLATOON_ENSURES(sig.bytes.size() == 96);
    return sig;
}

namespace {

/// R, s and the challenge e of a signature after structural validation.
/// The public key's bytes enter the challenge; decoding the key is left to
/// the caller.
struct SigParts {
    Point big_r;
    U256 s;  ///< < L
    U256 e;  ///< challenge hash, < L
};

std::optional<SigParts> parse_sig_parts(BytesView public_key_bytes,
                                        BytesView msg, const Signature& sig) {
    if (sig.bytes.size() != 96) return std::nullopt;
    const BytesView sig_view(sig.bytes);
    const auto big_r = point_from_bytes(sig_view.subspan(0, 64));
    if (!big_r) return std::nullopt;
    const U256 s = U256::from_le_bytes(sig_view.subspan(64, 32));
    if (cmp(s, group_order()) != std::strong_ordering::less)
        return std::nullopt;
    const U256 e =
        hash_to_scalar({sig_view.subspan(0, 64), public_key_bytes, msg});
    return SigParts{*big_r, s, e};
}

/// Signature components and the decoded public key.
struct ParsedSig : SigParts {
    Point pub;
};

std::optional<ParsedSig> parse_signature(BytesView public_key_bytes,
                                         BytesView msg, const Signature& sig) {
    const auto pub = point_from_bytes(public_key_bytes);
    if (!pub) return std::nullopt;
    const auto parts = parse_sig_parts(public_key_bytes, msg, sig);
    if (!parts) return std::nullopt;
    return ParsedSig{*parts, *pub};
}

/// sB == R + eP, evaluated as sB + e(-P) == R on the base-point comb and a
/// 4-bit window over -P.
bool verify_parsed(const ParsedSig& p) {
    const Point lhs = point_add(scalar_mul_base(p.s),
                                scalar_mul_windowed(p.e, point_neg(p.pub)));
    return point_equal(lhs, p.big_r);
}

}  // namespace

bool verify(BytesView public_key_bytes, BytesView msg, const Signature& sig) {
    const auto parsed = parse_signature(public_key_bytes, msg, sig);
    return parsed.has_value() && verify_parsed(*parsed);
}

VerifyingKey::VerifyingKey(BytesView bytes, const Point& public_key)
    : neg_comb_(point_neg(public_key)) {
    PLATOON_EXPECTS(bytes.size() == bytes_.size());
    std::copy(bytes.begin(), bytes.end(), bytes_.begin());
}

std::optional<VerifyingKey> VerifyingKey::from_bytes(
    BytesView public_key_bytes) {
    const auto pub = point_from_bytes(public_key_bytes);
    if (!pub) return std::nullopt;
    return VerifyingKey(public_key_bytes, *pub);
}

bool verify(const VerifyingKey& key, BytesView msg, const Signature& sig) {
    const auto p = parse_sig_parts(key.bytes(), msg, sig);
    if (!p) return false;
    const Point lhs = comb_pass<2>({&base_point_comb(), &key.neg_comb_},
                                   {comb_digits(p->s), comb_digits(p->e)});
    return point_equal(lhs, p->big_r);
}

Bytes dh_shared_key(const U256& my_secret, BytesView their_public_bytes) {
    const auto pub = point_from_bytes(their_public_bytes);
    PLATOON_EXPECTS(pub.has_value());
    const Point shared = scalar_mul_windowed(my_secret, *pub);
    Sha256 h;
    h.update(std::string_view("platoonsec.ecdh.v1"));
    const Bytes sb = point_to_bytes(shared);
    h.update(BytesView(sb));
    const auto d = h.finish();
    return Bytes(d.begin(), d.end());
}

namespace {

/// Signatures settled by a multi-item random-linear-combination equation
/// (one increment per signature in an accepted batch of size >= 2).
obs::Counter g_batch_verified{"crypto.verify.batched"};

/// Odd 128-bit coefficient. Odd and < L, so z*T == identity has no nonzero
/// solution T on the curve (T would need odd order dividing z, and the only
/// odd orders are 1 and L > 2^128): a batch with exactly one bad item can
/// never falsely accept.
U256 draw_coefficient(const ScalarBits& bits) {
    U256 z;
    z.w[0] = bits() | 1u;
    z.w[1] = bits();
    return z;
}

/// RLC acceptance test over already-parsed items:
///   sum_i z_i*s_i * B - sum_i z_i * R_i - sum_i z_i*e_i * P_i == identity,
/// evaluated as (sum of the R and P terms) == -(base coefficient * B) so
/// the base-point term runs on the comb instead of its own window table.
bool rlc_accepts(const std::vector<ParsedSig>& parsed,
                 const std::vector<std::size_t>& idx, const ScalarBits& bits) {
    const U256& order = group_order();
    U256 base_coeff{};
    std::vector<std::pair<U256, Point>> terms;
    terms.reserve(idx.size() * 2);
    for (const std::size_t i : idx) {
        const ParsedSig& p = parsed[i];
        const U256 z = draw_coefficient(bits);
        base_coeff = add_mod(base_coeff, mul_mod_l(z, p.s), order);
        terms.emplace_back(z, point_neg(p.big_r));
        terms.emplace_back(mul_mod_l(z, p.e), point_neg(p.pub));
    }
    return point_equal(multi_scalar_mul(terms),
                       point_neg(scalar_mul_base(base_coeff)));
}

/// Recursive bisection: accept whole sub-batches via one RLC equation,
/// split rejected ones, and settle single items with a plain verify.
void bisect_verify(const std::vector<ParsedSig>& parsed,
                   const std::vector<std::size_t>& idx, const ScalarBits& bits,
                   std::vector<bool>& out) {
    if (idx.empty()) return;
    if (idx.size() == 1) {
        out[idx.front()] = verify_parsed(parsed[idx.front()]);
        return;
    }
    if (rlc_accepts(parsed, idx, bits)) {
        for (const std::size_t i : idx) out[i] = true;
        g_batch_verified.add(idx.size());
        return;
    }
    const auto mid =
        idx.begin() + static_cast<std::ptrdiff_t>(idx.size() / 2);
    bisect_verify(parsed, {idx.begin(), mid}, bits, out);
    bisect_verify(parsed, {mid, idx.end()}, bits, out);
}

}  // namespace

bool batch_verify(const std::vector<BatchItem>& items, const ScalarBits& bits) {
    std::vector<ParsedSig> parsed;
    parsed.reserve(items.size());
    for (const BatchItem& item : items) {
        auto p = parse_signature(BytesView(item.public_key),
                                 BytesView(item.msg), item.sig);
        if (!p) return false;  // Malformed: fails individually, fails here.
        parsed.push_back(std::move(*p));
    }
    if (parsed.empty()) return true;
    // A single item consumes no randomness and is a plain verification.
    if (parsed.size() == 1) return verify_parsed(parsed.front());
    std::vector<std::size_t> idx(parsed.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    if (!rlc_accepts(parsed, idx, bits)) return false;
    g_batch_verified.add(parsed.size());
    return true;
}

std::vector<bool> batch_verify_each(const std::vector<BatchItem>& items,
                                    const ScalarBits& bits) {
    std::vector<bool> out(items.size(), false);
    std::vector<ParsedSig> parsed(items.size());
    std::vector<std::size_t> idx;  // structurally valid items only
    idx.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        auto p = parse_signature(BytesView(items[i].public_key),
                                 BytesView(items[i].msg), items[i].sig);
        if (p) {
            parsed[i] = std::move(*p);
            idx.push_back(i);
        }
    }
    bisect_verify(parsed, idx, bits, out);
    return out;
}

}  // namespace platoon::crypto
