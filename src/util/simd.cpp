#include "util/simd.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NATSCALE_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define NATSCALE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace natscale {

namespace {

// --- scalar reference ------------------------------------------------------

void packed_min_add1_scalar(std::uint64_t* row, const std::uint64_t* wrow,
                            std::size_t width) {
    for (std::size_t j = 0; j < width; ++j) {
        const std::uint64_t cand = wrow[j] + 1;
        row[j] = row[j] < cand ? row[j] : cand;
    }
}

void copy_bump_scalar(std::byte* dst, const std::byte* src, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
        std::memcpy(dst + i * 16, src + i * 16, 16);
        std::uint32_t b = 0;
        std::memcpy(&b, src + i * 16 + 4, 4);
        b += 1;
        std::memcpy(dst + i * 16 + 4, &b, 4);
    }
}

std::uint64_t mismatch_mask_scalar(const std::uint64_t* a, const std::uint64_t* b,
                                   std::size_t count) {
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < count; ++i) {
        mask |= static_cast<std::uint64_t>(a[i] != b[i]) << i;
    }
    return mask;
}

/// One lane of occupancy_bins: the reference every vector path matches.
inline void occupancy_bin_lane(std::int32_t hops, std::uint64_t duration, double bins,
                               std::uint64_t last, std::uint64_t& bin, std::uint64_t& x_bits,
                               std::uint64_t& x_sq_bits) {
    double x = static_cast<double>(hops) / static_cast<double>(duration);
    if (x >= 1.0) {
        x = 1.0;
        bin = last;
    } else {
        const auto idx = static_cast<std::uint64_t>(std::ceil(x * bins)) - 1;
        bin = idx < last ? idx : last;
    }
    x_bits = std::bit_cast<std::uint64_t>(x);
    x_sq_bits = std::bit_cast<std::uint64_t>(x * x);
}

void occupancy_bins_scalar(const std::int32_t* hops, const std::uint64_t* durations,
                           std::size_t count, std::uint64_t bins, std::uint64_t* bin,
                           std::uint64_t* x_bits, std::uint64_t* x_sq_bits) {
    const auto b = static_cast<double>(bins);
    for (std::size_t i = 0; i < count; ++i) {
        occupancy_bin_lane(hops[i], durations[i], b, bins - 1, bin[i], x_bits[i],
                           x_sq_bits[i]);
    }
}

#if NATSCALE_SIMD_X86

/// 2^52: adding it to (or OR-ing its bit pattern into) an integer v below
/// 2^52 gives the double 2^52 + v exactly, whose low 52 bits are v — an
/// exact u64 <-> double conversion without AVX-512DQ.
constexpr std::uint64_t kMagicBits = 0x4330000000000000ULL;
constexpr double kMagic = 0x1p52;

/// True when some duration is 2^52 or more: the magic-number conversion
/// would be inexact, so the block takes the scalar reference.
bool any_wide_duration(const std::uint64_t* durations, std::size_t count) {
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < count; ++i) any |= durations[i];
    return (any >> 52) != 0;
}

// --- AVX2 ------------------------------------------------------------------
//
// There is no unsigned 64-bit min below AVX-512, so compare in the signed
// domain after flipping the sign bit of both operands (x ^ (1 << 63) is an
// order-preserving bijection from unsigned to signed order), then select
// with vpblendvb.  The +1 of the candidate never wraps: packed states are
// bounded by the unreachable sentinel 0xFFFFFFFF00000000 (reachability.hpp).

__attribute__((target("avx2"))) void packed_min_add1_avx2(std::uint64_t* row,
                                                          const std::uint64_t* wrow,
                                                          std::size_t width) {
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i flip = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
    std::size_t j = 0;
    for (; j + 4 <= width; j += 4) {
        const __m256i r =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j));
        const __m256i cand = _mm256_add_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wrow + j)), one);
        const __m256i row_greater = _mm256_cmpgt_epi64(_mm256_xor_si256(r, flip),
                                                       _mm256_xor_si256(cand, flip));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + j),
                            _mm256_blendv_epi8(r, cand, row_greater));
    }
    for (; j < width; ++j) {
        const std::uint64_t cand = wrow[j] + 1;
        row[j] = row[j] < cand ? row[j] : cand;
    }
}

__attribute__((target("avx2"))) void copy_bump_avx2(std::byte* dst, const std::byte* src,
                                                    std::size_t count) {
    const __m256i bump = _mm256_setr_epi32(0, 1, 0, 0, 0, 1, 0, 0);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        const __m256i rec =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i * 16));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i * 16),
                            _mm256_add_epi32(rec, bump));
    }
    if (i < count) {  // one 16-byte record: SSE2 is x86-64 baseline
        const __m128i rec =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i * 16));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i * 16),
                         _mm_add_epi32(rec, _mm_setr_epi32(0, 1, 0, 0)));
    }
}

__attribute__((target("avx2"))) std::uint64_t mismatch_mask_avx2(const std::uint64_t* a,
                                                                 const std::uint64_t* b,
                                                                 std::size_t count) {
    std::uint64_t mask = 0;
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m256i eq = _mm256_cmpeq_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
        const auto lanes_equal =
            static_cast<std::uint64_t>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
        mask |= (~lanes_equal & 0xFu) << i;
    }
    for (; i < count; ++i) mask |= static_cast<std::uint64_t>(a[i] != b[i]) << i;
    return mask;
}

__attribute__((target("avx2"))) void occupancy_bins_avx2(
    const std::int32_t* hops, const std::uint64_t* durations, std::size_t count,
    std::uint64_t bins, std::uint64_t* bin, std::uint64_t* x_bits, std::uint64_t* x_sq_bits) {
    if (any_wide_duration(durations, count)) {
        occupancy_bins_scalar(hops, durations, count, bins, bin, x_bits, x_sq_bits);
        return;
    }
    const auto b = static_cast<double>(bins);
    const __m256d vb = _mm256_set1_pd(b);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d magic = _mm256_set1_pd(kMagic);
    const __m256i magic_bits = _mm256_set1_epi64x(static_cast<long long>(kMagicBits));
    // Bin indices are below 2^52, so the signed compare orders them.
    const __m256i last = _mm256_set1_epi64x(static_cast<long long>(bins - 1));
    const __m256i magic_plus_one =
        _mm256_set1_epi64x(static_cast<long long>(kMagicBits + 1));
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m256d h = _mm256_cvtepi32_pd(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(hops + i)));
        const __m256i d_int =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(durations + i));
        const __m256d d =
            _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(d_int, magic_bits)), magic);
        const __m256d x = _mm256_min_pd(_mm256_div_pd(h, d), one);
        const __m256d c = _mm256_ceil_pd(_mm256_mul_pd(x, vb));  // integer in [1, bins]
        const __m256i idx =
            _mm256_sub_epi64(_mm256_castpd_si256(_mm256_add_pd(c, magic)), magic_plus_one);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(bin + i),
                            _mm256_blendv_epi8(idx, last, _mm256_cmpgt_epi64(idx, last)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(x_bits + i), _mm256_castpd_si256(x));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(x_sq_bits + i),
                            _mm256_castpd_si256(_mm256_mul_pd(x, x)));
    }
    for (; i < count; ++i) {
        occupancy_bin_lane(hops[i], durations[i], b, bins - 1, bin[i], x_bits[i],
                           x_sq_bits[i]);
    }
}

// --- AVX-512 ---------------------------------------------------------------
//
// Native vpminuq, and masked loads/stores absorb the remainder — no scalar
// tail at any width, which is what lets the width-1 shard tests pin the
// masked path.

// GCC 12's avx512fintrin.h trips -Wmaybe-uninitialized on the zero source of
// masked loads (GCC PR 105593); the value is fully defined.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f"))) void packed_min_add1_avx512(std::uint64_t* row,
                                                               const std::uint64_t* wrow,
                                                               std::size_t width) {
    const __m512i one = _mm512_set1_epi64(1);
    std::size_t j = 0;
    for (; j + 8 <= width; j += 8) {
        const __m512i r = _mm512_loadu_si512(row + j);
        const __m512i cand = _mm512_add_epi64(_mm512_loadu_si512(wrow + j), one);
        _mm512_storeu_si512(row + j, _mm512_min_epu64(r, cand));
    }
    const std::size_t rem = width - j;
    if (rem != 0) {
        const __mmask8 m = static_cast<__mmask8>((1u << rem) - 1);
        const __m512i r = _mm512_mask_loadu_epi64(_mm512_setzero_si512(), m, row + j);
        const __m512i cand = _mm512_add_epi64(_mm512_mask_loadu_epi64(_mm512_setzero_si512(), m, wrow + j), one);
        _mm512_mask_storeu_epi64(row + j, m, _mm512_min_epu64(r, cand));
    }
}

__attribute__((target("avx512f"))) void copy_bump_avx512(std::byte* dst,
                                                         const std::byte* src,
                                                         std::size_t count) {
    const __m512i bump =
        _mm512_setr_epi32(0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0);
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        _mm512_storeu_si512(dst + i * 16,
                            _mm512_add_epi32(_mm512_loadu_si512(src + i * 16), bump));
    }
    const std::size_t rem = count - i;  // 0..3 records = 4 u32 lanes each
    if (rem != 0) {
        const __mmask16 m = static_cast<__mmask16>((1u << (rem * 4)) - 1);
        _mm512_mask_storeu_epi32(
            dst + i * 16,
            m, _mm512_add_epi32(_mm512_mask_loadu_epi32(_mm512_setzero_si512(), m, src + i * 16), bump));
    }
}

__attribute__((target("avx512f"))) std::uint64_t mismatch_mask_avx512(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t count) {
    std::uint64_t mask = 0;
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        const __mmask8 ne = _mm512_cmpneq_epu64_mask(_mm512_loadu_si512(a + i),
                                                     _mm512_loadu_si512(b + i));
        mask |= static_cast<std::uint64_t>(ne) << i;
    }
    const std::size_t rem = count - i;
    if (rem != 0) {
        const __mmask8 m = static_cast<__mmask8>((1u << rem) - 1);
        const __mmask8 ne = _mm512_mask_cmpneq_epu64_mask(
            m, _mm512_mask_loadu_epi64(_mm512_setzero_si512(), m, a + i),
            _mm512_mask_loadu_epi64(_mm512_setzero_si512(), m, b + i));
        mask |= static_cast<std::uint64_t>(ne) << i;
    }
    return mask;
}

/// Eight lanes of occupancy_bins from the loaded hops and durations; only
/// the lanes in `m` are stored.
__attribute__((target("avx512f"))) inline void occupancy_bins8_avx512(
    __mmask8 m, __m256i h_int, __m512i d_int, __m512d vb, __m512i last, std::uint64_t* bin,
    std::uint64_t* x_bits, std::uint64_t* x_sq_bits) {
    const __m512d magic = _mm512_set1_pd(kMagic);
    const __m512i magic_bits = _mm512_set1_epi64(static_cast<long long>(kMagicBits));
    const __m512d h = _mm512_cvtepi32_pd(h_int);
    const __m512d d =
        _mm512_sub_pd(_mm512_castsi512_pd(_mm512_or_si512(d_int, magic_bits)), magic);
    const __m512d x = _mm512_min_pd(_mm512_div_pd(h, d), _mm512_set1_pd(1.0));
    const __m512d c = _mm512_roundscale_pd(_mm512_mul_pd(x, vb),
                                           _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
    const __m512i idx = _mm512_sub_epi64(
        _mm512_castpd_si512(_mm512_add_pd(c, magic)),
        _mm512_set1_epi64(static_cast<long long>(kMagicBits + 1)));
    _mm512_mask_storeu_epi64(bin, m, _mm512_min_epu64(idx, last));
    _mm512_mask_storeu_epi64(x_bits, m, _mm512_castpd_si512(x));
    _mm512_mask_storeu_epi64(x_sq_bits, m, _mm512_castpd_si512(_mm512_mul_pd(x, x)));
}

__attribute__((target("avx512f"))) void occupancy_bins_avx512(
    const std::int32_t* hops, const std::uint64_t* durations, std::size_t count,
    std::uint64_t bins, std::uint64_t* bin, std::uint64_t* x_bits, std::uint64_t* x_sq_bits) {
    if (any_wide_duration(durations, count)) {
        occupancy_bins_scalar(hops, durations, count, bins, bin, x_bits, x_sq_bits);
        return;
    }
    const __m512d vb = _mm512_set1_pd(static_cast<double>(bins));
    const __m512i last = _mm512_set1_epi64(static_cast<long long>(bins - 1));
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        occupancy_bins8_avx512(
            0xFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hops + i)),
            _mm512_loadu_si512(durations + i), vb, last, bin + i, x_bits + i,
            x_sq_bits + i);
    }
    const std::size_t rem = count - i;
    if (rem != 0) {
        // Dead lanes load hops = duration = 1 (x = 1), so they divide
        // cleanly; they are never stored.
        const __mmask8 m = static_cast<__mmask8>((1u << rem) - 1);
        const __m256i h_int = _mm512_castsi512_si256(
            _mm512_mask_loadu_epi32(_mm512_set1_epi32(1), m, hops + i));
        const __m512i d_int = _mm512_mask_loadu_epi64(_mm512_set1_epi64(1), m, durations + i);
        occupancy_bins8_avx512(m, h_int, d_int, vb, last, bin + i, x_bits + i,
                               x_sq_bits + i);
    }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // NATSCALE_SIMD_X86

#if NATSCALE_SIMD_NEON

void packed_min_add1_neon(std::uint64_t* row, const std::uint64_t* wrow,
                          std::size_t width) {
    const uint64x2_t one = vdupq_n_u64(1);
    std::size_t j = 0;
    for (; j + 2 <= width; j += 2) {
        const uint64x2_t r = vld1q_u64(row + j);
        const uint64x2_t cand = vaddq_u64(vld1q_u64(wrow + j), one);
        vst1q_u64(row + j, vbslq_u64(vcgtq_u64(r, cand), cand, r));
    }
    if (j < width) {
        const std::uint64_t cand = wrow[j] + 1;
        row[j] = row[j] < cand ? row[j] : cand;
    }
}

void copy_bump_neon(std::byte* dst, const std::byte* src, std::size_t count) {
    const uint32x4_t bump = {0, 1, 0, 0};
    for (std::size_t i = 0; i < count; ++i) {
        const uint32x4_t rec =
            vld1q_u32(reinterpret_cast<const std::uint32_t*>(src + i * 16));
        vst1q_u32(reinterpret_cast<std::uint32_t*>(dst + i * 16), vaddq_u32(rec, bump));
    }
}

#endif  // NATSCALE_SIMD_NEON

simd::Ops ops_for(SimdIsa isa) {
    switch (isa) {
#if NATSCALE_SIMD_X86
        case SimdIsa::avx2:
            return {&packed_min_add1_avx2, &copy_bump_avx2, &mismatch_mask_avx2,
                    &occupancy_bins_avx2};
        case SimdIsa::avx512:
            return {&packed_min_add1_avx512, &copy_bump_avx512, &mismatch_mask_avx512,
                    &occupancy_bins_avx512};
#endif
#if NATSCALE_SIMD_NEON
        case SimdIsa::neon:
            // NEON has no movemask, and no aarch64 build checks a
            // hand-written replacement, so the mask and occupancy ops stay
            // scalar.
            return {&packed_min_add1_neon, &copy_bump_neon, &mismatch_mask_scalar,
                    &occupancy_bins_scalar};
#endif
        default:
            return simd::kScalarOps;
    }
}

struct Dispatch {
    SimdIsa isa = SimdIsa::scalar;
    simd::Ops ops = simd::kScalarOps;
};

/// Resolved once per process (environment override applied on first use),
/// then only mutated through set_simd_isa().
Dispatch& dispatch() {
    static Dispatch d = [] {
        SimdIsa isa = detect_simd_isa();
        if (const char* env = std::getenv("NATSCALE_SIMD")) {
            const std::string text(env);
            SimdIsa requested = SimdIsa::scalar;
            if (text.empty() || text == "auto") {
                // keep the detected ISA
            } else if (!parse_simd_isa(text, requested)) {
                std::fprintf(stderr,
                             "natscale: NATSCALE_SIMD='%s' not recognized "
                             "(auto|scalar|avx2|avx512|neon); using %s\n",
                             env, to_string(isa));
            } else if (!simd_isa_supported(requested)) {
                std::fprintf(stderr,
                             "natscale: NATSCALE_SIMD=%s is not supported on this "
                             "CPU; using %s\n",
                             to_string(requested), to_string(isa));
            } else {
                isa = requested;
            }
        }
        return Dispatch{isa, ops_for(isa)};
    }();
    return d;
}

}  // namespace

const char* to_string(SimdIsa isa) {
    switch (isa) {
        case SimdIsa::scalar: return "scalar";
        case SimdIsa::avx2: return "avx2";
        case SimdIsa::avx512: return "avx512";
        case SimdIsa::neon: return "neon";
    }
    return "scalar";
}

bool parse_simd_isa(const std::string& text, SimdIsa& out) {
    if (text == "scalar") out = SimdIsa::scalar;
    else if (text == "avx2") out = SimdIsa::avx2;
    else if (text == "avx512") out = SimdIsa::avx512;
    else if (text == "neon") out = SimdIsa::neon;
    else return false;
    return true;
}

bool simd_isa_supported(SimdIsa isa) {
    switch (isa) {
        case SimdIsa::scalar:
            return true;
#if NATSCALE_SIMD_X86
        case SimdIsa::avx2:
            return __builtin_cpu_supports("avx2") != 0;
        case SimdIsa::avx512:
            return __builtin_cpu_supports("avx512f") != 0;
#endif
#if NATSCALE_SIMD_NEON
        case SimdIsa::neon:
            return true;
#endif
        default:
            return false;
    }
}

SimdIsa detect_simd_isa() {
#if NATSCALE_SIMD_X86
    if (__builtin_cpu_supports("avx512f")) return SimdIsa::avx512;
    if (__builtin_cpu_supports("avx2")) return SimdIsa::avx2;
    return SimdIsa::scalar;
#elif NATSCALE_SIMD_NEON
    return SimdIsa::neon;
#else
    return SimdIsa::scalar;
#endif
}

std::vector<SimdIsa> supported_simd_isas() {
    std::vector<SimdIsa> isas;
    for (const SimdIsa isa :
         {SimdIsa::scalar, SimdIsa::avx2, SimdIsa::avx512, SimdIsa::neon}) {
        if (simd_isa_supported(isa)) isas.push_back(isa);
    }
    return isas;
}

SimdIsa active_simd_isa() { return dispatch().isa; }

bool set_simd_isa(SimdIsa isa) {
    if (!simd_isa_supported(isa)) return false;
    dispatch() = Dispatch{isa, ops_for(isa)};
    return true;
}

namespace simd {

const Ops kScalarOps = {&packed_min_add1_scalar, &copy_bump_scalar,
                        &mismatch_mask_scalar, &occupancy_bins_scalar};

const Ops& ops() { return dispatch().ops; }

}  // namespace simd

}  // namespace natscale
