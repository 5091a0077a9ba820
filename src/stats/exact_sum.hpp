// Exact, order-independent summation of non-negative doubles.
//
// The column-sharded reachability scans (temporal/column_shards.hpp) split
// one logical sample stream — occupancy rates, elongation factors — into
// per-shard partials that are accumulated concurrently and merged afterwards.
// Floating-point addition is not associative, so a naive `double sum`
// partial would make the merged result depend on the shard structure and
// destroy the repo's differential-parity discipline (sequential and parallel
// paths must be bit-identical at every thread count, and a partial split at
// ANY boundary must reproduce the single-accumulator result bit-for-bit).
//
// ExactSum removes the problem at the root: it accumulates the exact value
// of the sum in a Kulisch-style fixed-point superaccumulator — an array of
// 64-bit limbs covering every bit position a non-negative finite double can
// occupy (2^-1074 .. 2^1024) plus headroom for 2^64-fold counts and merges.
// Integer addition is associative and commutative, so the accumulator state
// after adding a multiset of samples is a unique function of the multiset:
// any split into partials, merged in any order, yields the identical limbs
// and therefore the identical rounded `value()`.
//
// Cost: add() decomposes the double, does one 128-bit multiply by the count
// and a shifted add into up to three limbs with carry propagation.  Through
// Histogram01::add, twice per minimal trip (Sigma x and Sigma x^2), that
// measured ≈38 ns per trip replaying the irvine replica's 647M trips on one
// thread (gcc 12 Release, 4-core Xeon VM) — as much as the reachability scan
// that emits them.  The per-trip path therefore goes through
// stats/occupancy_accumulator.hpp, which touches no ExactSum per trip: it
// counts short trips per (hops, duration), sums raw mantissas per exponent
// in 128-bit integers (a mantissa times its count for a counted pair), and
// folds each sum in with add_mantissa_sum() once per scan — the same exact
// state.
#pragma once

#include <array>
#include <cstdint>

namespace natscale {

class ExactSum {
public:
    /// Adds `count` copies of `x` exactly.
    /// Preconditions: x is finite and non-negative.
    void add(double x, std::uint64_t count = 1);

    /// Adds `sum` * 2^(raw_exp - 1075) exactly: the total of a batch of
    /// normal doubles that all have biased exponent `raw_exp`, given as the
    /// integer sum of their 53-bit significands (implicit bit included).
    /// Equal, limb for limb, to add()-ing each of those doubles.
    /// Preconditions: 1 <= raw_exp <= 2046 (a normal exponent).
    void add_mantissa_sum(unsigned __int128 sum, unsigned raw_exp);

    /// Adds another accumulator exactly (limb-wise integer addition).
    void merge(const ExactSum& other) noexcept;

    /// The accumulated sum rounded to double (deterministic: a pure function
    /// of the exact accumulator state, which itself is a pure function of
    /// the added multiset).  Faithful to within ~1 ulp of the exact value.
    double value() const noexcept;

    bool zero() const noexcept;

    friend bool operator==(const ExactSum& a, const ExactSum& b) noexcept {
        return a.limbs_ == b.limbs_;
    }

    /// Bit 0 of limb 0 weighs 2^-1074 (the smallest subnormal).  The largest
    /// finite double contributes up to bit 2097; a 2^64 count shifts that to
    /// 2161 and merge carries need a little more — 36 limbs = 2304 bits.
    static constexpr std::size_t kLimbs = 36;

    /// The raw accumulator limbs — the complete state, which is a pure
    /// function of the added multiset.  Restoring them verbatim (from_limbs)
    /// reproduces the accumulator bit-for-bit, so checkpointed statistics
    /// resume with the exact-merge guarantees intact (online/checkpoint).
    const std::array<std::uint64_t, kLimbs>& limbs() const noexcept { return limbs_; }

    static ExactSum from_limbs(const std::array<std::uint64_t, kLimbs>& limbs) noexcept {
        ExactSum sum;
        sum.limbs_ = limbs;
        return sum;
    }

private:
    static constexpr int kBias = 1074;  // limb-array bit i weighs 2^(i - kBias)

    /// Adds `value` * 2^(bitpos - kBias) into the limbs.
    void add_shifted(unsigned __int128 value, std::size_t bitpos) noexcept;

    std::array<std::uint64_t, kLimbs> limbs_{};
};

}  // namespace natscale
