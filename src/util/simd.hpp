// Runtime-dispatched SIMD kernels for the packed reachability hot loops and
// the occupancy accumulator's long-trip block.
//
// The dense backward DP (temporal/reachability.hpp) spends almost all of its
// time in one data-parallel statement — `row[j] = min(row[j], wrow[j] + 1)`
// over a contiguous span of packed uint64 (arrival_rank << 32 | hops) cells —
// and the sparse backend's candidate generation is a 16-byte-record copy that
// adds 1 to the hops lane.  Both are pure unsigned integer operations, so a
// vector implementation is bit-identical to the scalar loop by construction:
// no reassociation, no per-lane control flow.
//
// This header exposes those two operations, the change mask the dense DP's
// trip emission reads after each relaxation, and the occupancy binning of a
// block of long trips (stats/occupancy_accumulator.hpp) behind one
// function-pointer table resolved once per process:
//
//   isa        packed u64 min            availability
//   ---------  ------------------------  -----------------------------------
//   scalar     plain loop                always (the only path on other ISAs)
//   avx2       vpcmpgtq sign-flip trick  x86-64 with AVX2 (no unsigned 64-bit
//              + vpblendvb               min below AVX-512, so compare in the
//                                        signed domain after XOR 1<<63)
//   avx512     vpminuq (512-bit)         x86-64 with AVX-512F (masked tail,
//                                        no scalar remainder loop at all)
//   neon       vcgtq_u64 + vbslq_u64     AArch64 (NEON is baseline there)
//
// The change mask is vpcmpeqq + vmovmskpd on AVX2, vpcmpnequq into a mask
// register on AVX-512, and the scalar loop on scalar and NEON.
//
// The occupancy op is the one floating-point op.  It stays bit-exact
// because every step is a single correctly rounded IEEE operation on both
// paths: the division hops / duration, the product x * B, ceil and x * x
// (no sums, so nothing to reassociate or contract into an FMA).  The vector
// paths convert integers to doubles exactly: hops with vcvtdq2pd, durations
// and bin indices below 2^52 with the 2^52 magic-number trick (AVX-512F has
// no u64 <-> double conversion without DQ, which the probe does not require).
// A block holding a duration of 2^52 or more takes the scalar reference.
// It is vdivpd/vroundpd on AVX2, vdivpd/vrndscalepd with masked tails on
// AVX-512, and the scalar loop on scalar and NEON.
//
// Selection order: NATSCALE_SIMD environment variable if set
// (auto|scalar|avx2|avx512|neon), else the strongest ISA the CPU reports
// (CPUID via __builtin_cpu_supports on x86-64; NEON unconditionally on
// AArch64).  Requesting an unsupported ISA falls back to the strongest
// supported one with a one-time stderr warning — a forced-path CI leg on the
// wrong hardware degrades loudly instead of crashing.  set_simd_isa() is the
// programmatic override behind the `--simd=` CLI flag and the bench suite;
// tests iterate supported_simd_isas() to pin every path that can run here.
//
// Every implementation of every op produces byte-identical output, so the
// differential suites (tests/test_simd.cpp, scalar-vs-ISA over the whole
// generator corpus) can require bitwise equality, not approximation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace natscale {

enum class SimdIsa {
    scalar,  ///< portable fallback, always available
    avx2,    ///< x86-64 AVX2 (unsigned min emulated via signed compare)
    avx512,  ///< x86-64 AVX-512F (native vpminuq + masked tails)
    neon,    ///< AArch64 Advanced SIMD
};

/// Lower-case name used by NATSCALE_SIMD, the --simd flag and the benches.
const char* to_string(SimdIsa isa);

/// Parses "scalar" / "avx2" / "avx512" / "neon"; returns false on anything
/// else ("auto" is not an ISA — resolve it with detect_simd_isa()).
bool parse_simd_isa(const std::string& text, SimdIsa& out);

/// True when this machine can execute `isa` (scalar always can).
bool simd_isa_supported(SimdIsa isa);

/// Strongest ISA the CPU supports, ignoring every override.
SimdIsa detect_simd_isa();

/// Every ISA simd_isa_supported() accepts here, scalar first — the loop the
/// differential tests and the bench suite iterate.
std::vector<SimdIsa> supported_simd_isas();

/// ISA the kernels below currently dispatch to, after the NATSCALE_SIMD
/// environment override and any set_simd_isa() call.
SimdIsa active_simd_isa();

/// Forces the dispatch to `isa`.  Returns false (and changes nothing) when
/// the machine cannot execute it.  Not thread-safe against concurrent scans:
/// callers (CLI startup, the bench harness, tests) switch between scans.
bool set_simd_isa(SimdIsa isa);

namespace simd {

/// The four hot operations, one pointer each.  All implementations are
/// bit-exact; the table only changes which instructions compute the result.
struct Ops {
    /// row[j] = min(row[j], wrow[j] + 1) over width unsigned 64-bit cells
    /// (the dense DP relaxation; +1 never wraps — see reachability.hpp, the
    /// unreachable sentinel has zero low bits).  row and wrow must not alias.
    void (*packed_min_add1)(std::uint64_t* row, const std::uint64_t* wrow,
                            std::size_t width);

    /// Copies `count` 16-byte records {u32 a, u32 b, u64 c} from src to dst,
    /// adding 1 to the `b` lane of every record (the sparse backend's
    /// hops-plus-one candidate generation).  dst and src must not overlap.
    void (*copy_bump_second_u32)(std::byte* dst, const std::byte* src,
                                 std::size_t count);

    /// Bit i of the result is set iff a[i] != b[i], for i < count; higher
    /// bits are 0 (the dense DP's trip emission walks a relaxed row 64 cells
    /// at a time and visits only the set bits).  Precondition: count <= 64.
    std::uint64_t (*mismatch_mask)(const std::uint64_t* a, const std::uint64_t* b,
                                   std::size_t count);

    /// For i < count, with x = min(hops[i] / durations[i], 1) in double
    /// arithmetic: bin[i] = x's bin among `bins` equal bins of (0, 1]
    /// (ceil(x * bins) - 1, capped at bins - 1: Histogram01's binning rule),
    /// x_bits[i] = the bit pattern of x and x_sq_bits[i] that of x * x (the
    /// occupancy accumulator's long-trip block).  Preconditions: hops[i] >= 1,
    /// durations[i] >= 1, 1 <= bins < 2^52.
    void (*occupancy_bins)(const std::int32_t* hops, const std::uint64_t* durations,
                           std::size_t count, std::uint64_t bins, std::uint64_t* bin,
                           std::uint64_t* x_bits, std::uint64_t* x_sq_bits);
};

/// The table for the active ISA.  Resolved (environment override applied)
/// on first call; cheap afterwards.
const Ops& ops();

/// Scalar reference implementations, exposed so tests can compare any other
/// path against them directly.
extern const Ops kScalarOps;

}  // namespace simd

}  // namespace natscale
