// Split-invariance suite for the exact accumulators: merging Histogram01
// partials produced by ANY split of a sample stream must reproduce the
// single-accumulator bins, total, mean and stddev bit-for-bit — the property
// the column-sharded parallel scans rely on for thread-count-independent
// results (see stats/exact_sum.hpp and temporal/column_shards.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "stats/exact_sum.hpp"
#include "stats/histogram01.hpp"
#include "stats/occupancy_accumulator.hpp"
#include "temporal/minimal_trip.hpp"
#include "testing/isa_guard.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace natscale {
namespace {

bool same_bits(double a, double b) {
    std::uint64_t ia = 0;
    std::uint64_t ib = 0;
    std::memcpy(&ia, &a, sizeof a);
    std::memcpy(&ib, &b, sizeof b);
    return ia == ib;
}

// --- ExactSum --------------------------------------------------------------

TEST(ExactSum, MatchesSmallIntegerSums) {
    ExactSum sum;
    for (int i = 1; i <= 100; ++i) sum.add(static_cast<double>(i));
    EXPECT_EQ(sum.value(), 5050.0);
}

TEST(ExactSum, IsExactWhereNaiveSummationIsNot) {
    // 1 + 2^-60 * 2^60 == 2: naive double accumulation of one big value and
    // 2^60 tiny ones loses every tiny contribution; the superaccumulator
    // keeps them all (added via the multiplicity argument).
    ExactSum sum;
    sum.add(1.0);
    sum.add(std::ldexp(1.0, -60), std::uint64_t{1} << 60);
    EXPECT_EQ(sum.value(), 2.0);
}

TEST(ExactSum, OrderIndependentToTheBit) {
    Rng rng(7);
    std::vector<double> samples;
    for (int i = 0; i < 2000; ++i) {
        samples.push_back(rng.uniform01());  // in [0, 1)
    }
    ExactSum forward;
    for (double x : samples) forward.add(x);
    ExactSum backward;
    for (auto it = samples.rbegin(); it != samples.rend(); ++it) backward.add(*it);
    EXPECT_TRUE(forward == backward);
    EXPECT_TRUE(same_bits(forward.value(), backward.value()));
}

TEST(ExactSum, MergeEqualsConcatenationForAnySplit) {
    Rng rng(11);
    std::vector<double> samples;
    for (int i = 0; i < 1000; ++i) samples.push_back(rng.uniform01());
    ExactSum whole;
    for (double x : samples) whole.add(x);
    for (const std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{500},
                                    std::size_t{999}, samples.size()}) {
        ExactSum left;
        ExactSum right;
        for (std::size_t i = 0; i < samples.size(); ++i) {
            (i < split ? left : right).add(samples[i]);
        }
        left.merge(right);
        EXPECT_TRUE(left == whole) << "split=" << split;
    }
}

TEST(ExactSum, HandlesSubnormalsAndHugeCounts) {
    const double tiny = std::numeric_limits<double>::denorm_min();
    ExactSum sum;
    sum.add(tiny, std::numeric_limits<std::uint64_t>::max());
    // Exact value: denorm_min * (2^64 - 1) = 2^-1074 * (2^64 - 1).
    EXPECT_EQ(sum.value(), std::ldexp(1.0, -1074) * 1.8446744073709552e19);
    // Largest finite double at maximal count must not overflow the limbs.
    ExactSum big;
    big.add(std::numeric_limits<double>::max(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(std::isfinite(big.value()) || std::isinf(big.value()));
    EXPECT_FALSE(big.zero());
}

TEST(ExactSum, RejectsNegativeAndNonFinite) {
    ExactSum sum;
    EXPECT_THROW(sum.add(-1.0), contract_error);
    EXPECT_THROW(sum.add(std::numeric_limits<double>::infinity()), contract_error);
    EXPECT_THROW(sum.add(std::numeric_limits<double>::quiet_NaN()), contract_error);
    EXPECT_TRUE(sum.zero());
}

TEST(ExactSum, ZeroAndEmptyBehaviour) {
    ExactSum sum;
    EXPECT_TRUE(sum.zero());
    EXPECT_EQ(sum.value(), 0.0);
    sum.add(0.0, 1000);
    sum.add(0.5, 0);
    EXPECT_TRUE(sum.zero());
    sum.add(0.5);
    EXPECT_FALSE(sum.zero());
}

// --- ExactSum::add_mantissa_sum -------------------------------------------

/// The normal double with 53-bit significand `m` (implicit bit included) and
/// biased exponent `raw_exp`.
double from_parts(std::uint64_t m, unsigned raw_exp) {
    return std::ldexp(static_cast<double>(m), static_cast<int>(raw_exp) - 1075);
}

std::uint64_t random_significand(Rng& rng) {
    return (rng() >> 11) | (std::uint64_t{1} << 52);
}

TEST(ExactSumMantissaSum, MatchesRepeatedAddAtEveryShift) {
    // raw_exp 961 and 897 put the sum at limb-array bits 960 and 896, both
    // multiples of 64: the unshifted two-limb branch.  The others cover
    // shifted three-limb adds and the normal range's ends.
    Rng rng(42);
    for (const unsigned raw_exp : {961u, 897u, 1023u, 1000u, 960u, 1u, 2u, 65u, 2046u}) {
        ExactSum repeated;
        unsigned __int128 sum = 0;
        for (int i = 0; i < 500; ++i) {
            const std::uint64_t m = random_significand(rng);
            repeated.add(from_parts(m, raw_exp));
            sum += m;
        }
        ExactSum folded;
        folded.add_mantissa_sum(sum, raw_exp);
        EXPECT_EQ(folded.limbs(), repeated.limbs()) << "raw_exp=" << raw_exp;
    }
}

TEST(ExactSumMantissaSum, SumsNear2To128RippleCarriesAcrossLimbs) {
    // 2047 copies of the largest significand at count 2^64 - 1 sum to just
    // under 2^128.  Both accumulators start with every limb all-ones, so
    // each add carries through the limbs above it.
    constexpr std::uint64_t kMaxM = (std::uint64_t{1} << 53) - 1;
    constexpr std::uint64_t kMaxCount = ~std::uint64_t{0};
    std::array<std::uint64_t, ExactSum::kLimbs> ones;
    ones.fill(kMaxCount);
    ones.back() = 0;  // headroom for the final carry
    for (const unsigned raw_exp : {961u, 897u, 1023u, 1010u}) {
        ExactSum repeated = ExactSum::from_limbs(ones);
        unsigned __int128 sum = 0;
        for (int i = 0; i < 2047; ++i) {
            repeated.add(from_parts(kMaxM, raw_exp), kMaxCount);
            sum += static_cast<unsigned __int128>(kMaxM) * kMaxCount;
        }
        ASSERT_EQ(sum >> 127, 1u);  // a full 128-bit sum
        ExactSum folded = ExactSum::from_limbs(ones);
        folded.add_mantissa_sum(sum, raw_exp);
        EXPECT_EQ(folded.limbs(), repeated.limbs()) << "raw_exp=" << raw_exp;
    }
}

TEST(ExactSumMantissaSum, ZeroSumIsANoOp) {
    ExactSum sum;
    sum.add(0.75);
    const ExactSum before = sum;
    sum.add_mantissa_sum(0, 961);
    sum.add_mantissa_sum(0, 1023);
    EXPECT_TRUE(sum == before);
    ExactSum empty;
    empty.add_mantissa_sum(0, 1000);
    EXPECT_TRUE(empty.zero());
}

TEST(ExactSumMantissaSum, SplitPartialsMergeToRepeatedAdd) {
    // Samples over several exponents, split into two partials that each
    // fold their own per-exponent sums; merged, they equal one add() each.
    Rng rng(77);
    const std::vector<unsigned> exps = {1023u, 1022u, 1001u, 961u, 897u};
    ExactSum repeated;
    std::vector<unsigned __int128> left(exps.size(), 0);
    std::vector<unsigned __int128> right(exps.size(), 0);
    for (int i = 0; i < 3000; ++i) {
        const std::size_t e = rng.uniform_index(exps.size());
        const std::uint64_t m = random_significand(rng);
        repeated.add(from_parts(m, exps[e]));
        (rng.bernoulli(0.3) ? left : right)[e] += m;
    }
    ExactSum a;
    ExactSum b;
    for (std::size_t e = 0; e < exps.size(); ++e) {
        a.add_mantissa_sum(left[e], exps[e]);
        b.add_mantissa_sum(right[e], exps[e]);
    }
    ExactSum ab = a;
    ab.merge(b);
    b.merge(a);
    EXPECT_EQ(ab.limbs(), repeated.limbs());
    EXPECT_EQ(b.limbs(), repeated.limbs());
}

TEST(ExactSumMantissaSum, RejectsNonNormalExponents) {
    ExactSum sum;
    EXPECT_THROW(sum.add_mantissa_sum(1, 0), contract_error);
    EXPECT_THROW(sum.add_mantissa_sum(1, 2047), contract_error);
}

// --- Histogram01 block merge ----------------------------------------------

/// Occupancy-like samples: mostly rationals hops/duration in (0, 1], plus a
/// few adversarial values exercising the clamp paths.
std::vector<double> occupancy_like_samples(std::uint64_t seed, std::size_t count) {
    Rng rng(seed);
    std::vector<double> samples;
    samples.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto duration = static_cast<double>(1 + rng.uniform_index(1000));
        const auto hops = static_cast<double>(1 + rng.uniform_index(
                              static_cast<std::size_t>(duration)));
        samples.push_back(hops / duration);
    }
    samples.push_back(0.0);
    samples.push_back(1.0);
    samples.push_back(-3.5);                                     // clamps to bin 0
    samples.push_back(7.25);                                     // clamps to last bin
    samples.push_back(std::numeric_limits<double>::infinity());  // clamps to last bin
    samples.push_back(std::numeric_limits<double>::denorm_min());
    return samples;
}

void expect_identical(const Histogram01& merged, const Histogram01& whole) {
    EXPECT_EQ(merged.counts(), whole.counts());
    EXPECT_EQ(merged.total(), whole.total());
    EXPECT_TRUE(same_bits(merged.mean(), whole.mean()));
    EXPECT_TRUE(same_bits(merged.population_stddev(), whole.population_stddev()));
}

TEST(HistogramBlockMerge, RandomSplitsReproduceSingleAccumulatorBitwise) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
        const auto samples = occupancy_like_samples(seed, 5'000);
        Histogram01 whole(360);
        for (double x : samples) whole.add(x);

        // Random consecutive blocks, one partial per block, merged in block
        // order — the exact shape of the column-sharded scans' partials.
        Rng rng(seed * 1000 + 17);
        std::vector<Histogram01> partials;
        std::size_t i = 0;
        while (i < samples.size()) {
            const std::size_t block = 1 + rng.uniform_index(997);
            Histogram01 partial(360);
            for (std::size_t j = i; j < std::min(i + block, samples.size()); ++j) {
                partial.add(samples[j]);
            }
            partials.push_back(std::move(partial));
            i += block;
        }
        ASSERT_GE(partials.size(), 2u) << "seed=" << seed;

        Histogram01 merged(360);
        for (const auto& partial : partials) merged.merge(partial);
        expect_identical(merged, whole);
    }
}

TEST(HistogramBlockMerge, InterleavedSplitReproducesSingleAccumulatorBitwise) {
    // Harder than consecutive blocks: round-robin assignment scrambles the
    // accumulation order entirely; exactness must still give bit equality.
    const auto samples = occupancy_like_samples(99, 3'000);
    Histogram01 whole(3600);
    for (double x : samples) whole.add(x);
    std::vector<Histogram01> partials(7, Histogram01(3600));
    for (std::size_t i = 0; i < samples.size(); ++i) {
        partials[i % partials.size()].add(samples[i]);
    }
    Histogram01 merged(3600);
    for (const auto& partial : partials) merged.merge(partial);
    expect_identical(merged, whole);
}

TEST(HistogramBlockMerge, MergeOrderDoesNotMatter) {
    const auto samples = occupancy_like_samples(123, 2'000);
    std::vector<Histogram01> partials(5, Histogram01(100));
    for (std::size_t i = 0; i < samples.size(); ++i) {
        partials[i % partials.size()].add(samples[i]);
    }
    Histogram01 ascending(100);
    for (std::size_t p = 0; p < partials.size(); ++p) ascending.merge(partials[p]);
    Histogram01 descending(100);
    for (std::size_t p = partials.size(); p-- > 0;) descending.merge(partials[p]);
    expect_identical(ascending, descending);
}

TEST(HistogramBlockMerge, WeightedAddsMatchRepeatedAdds) {
    Histogram01 weighted(60);
    Histogram01 repeated(60);
    const double x = 1.0 / 3.0;
    weighted.add(x, 1'000'000);
    for (int i = 0; i < 1'000'000; ++i) repeated.add(x);
    expect_identical(weighted, repeated);
}

// --- OccupancyAccumulator parity with Histogram01::add ----------------------

/// Complete-state equality: counts, total and both moment limb arrays.
void expect_same_state(const Histogram01& a, const Histogram01& b) {
    EXPECT_EQ(a.counts(), b.counts());
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.moment_sum().limbs(), b.moment_sum().limbs());
    EXPECT_EQ(a.moment_sum_sq().limbs(), b.moment_sum_sq().limbs());
}

/// Trips with duration d up to 2^40 and hops h in [1, min(d, 2^31 - 1)];
/// every tenth one has h == d where it fits (occupancy exactly 1).
std::vector<MinimalTrip> random_trips(std::uint64_t seed, std::size_t count) {
    Rng rng(seed);
    std::vector<MinimalTrip> trips;
    trips.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const unsigned bits = 1 + static_cast<unsigned>(rng.uniform_index(40));
        const Time duration = rng.uniform_int(1, std::int64_t{1} << bits);
        const Time max_hops = std::min<Time>(duration, std::numeric_limits<Hops>::max());
        const Time hops = i % 10 == 0 ? max_hops : rng.uniform_int(1, max_hops);
        trips.push_back({0, 1, 5, 5 + duration - 1, static_cast<Hops>(hops)});
    }
    return trips;
}

/// `count` empty accumulators of `num_bins` bins, one per partial.
std::vector<OccupancyAccumulator> empty_partials(std::size_t count, std::size_t num_bins) {
    std::vector<OccupancyAccumulator> partials;
    partials.reserve(count);
    for (std::size_t i = 0; i < count; ++i) partials.emplace_back(num_bins);
    return partials;
}

TEST(OccupancyAccumulator, MatchesHistogramAddBitForBit) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto trips = random_trips(seed, 20'000);
        Histogram01 reference(3600);
        OccupancyAccumulator acc(3600);
        for (const MinimalTrip& trip : trips) {
            reference.add(series_occupancy(trip));
            acc(trip);
        }
        expect_same_state(std::move(acc).finish(), reference);
    }
}

TEST(OccupancyAccumulator, ValuesOutsideTheSlotTableTakeTheFallback) {
    // x < 2^-64 (or x^2 < 2^-127) has no slot; clamped and NaN samples
    // follow Histogram01::add's rules.  Mixed with slotted values so the
    // fold and the direct adds meet in the same limbs.
    const std::vector<double> samples = {
        0.5,
        std::ldexp(1.0, -63),
        std::ldexp(1.0, -64),
        std::ldexp(1.5, -65),
        std::ldexp(1.0, -70),
        std::ldexp(1.25, -600),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        1.0,
        0.0,
        -0.0,
        -2.0,
        3.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        1.0 / 3.0,
    };
    Histogram01 reference(100);
    OccupancyAccumulator acc(100);
    for (const double x : samples) {
        reference.add(x);
        acc.add(x);
    }
    expect_same_state(std::move(acc).finish(), reference);
}

TEST(OccupancyAccumulator, ContinuesAnExistingHistogram) {
    const auto trips = random_trips(9, 4'000);
    Histogram01 reference(720);
    for (std::size_t i = 0; i < 1'000; ++i) reference.add(series_occupancy(trips[i]));
    OccupancyAccumulator acc(reference);  // a copy of the first 1000
    for (std::size_t i = 1'000; i < trips.size(); ++i) {
        reference.add(series_occupancy(trips[i]));
        acc(trips[i]);
    }
    expect_same_state(std::move(acc).finish(), reference);
}

TEST(OccupancyAccumulator, SplitAcrossAccumulatorsMergesInAnyOrder) {
    const auto trips = random_trips(21, 12'000);
    Histogram01 reference(360);
    for (const MinimalTrip& trip : trips) reference.add(series_occupancy(trip));

    // Random consecutive blocks, one accumulator each (the sharded scans'
    // shape), finished and merged forwards, backwards and via
    // finish_and_merge.
    Rng rng(5);
    std::vector<std::size_t> cuts = {0};
    while (cuts.back() < trips.size()) {
        cuts.push_back(std::min(trips.size(), cuts.back() + 1 + rng.uniform_index(2'500)));
    }
    const auto fill = [&] {
        std::vector<OccupancyAccumulator> partials = empty_partials(cuts.size() - 1, 360);
        for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
            for (std::size_t i = cuts[p]; i < cuts[p + 1]; ++i) partials[p](trips[i]);
        }
        return partials;
    };
    ASSERT_GE(cuts.size(), 4u);

    auto forward = fill();
    expect_same_state(finish_and_merge(forward), reference);

    auto backward = fill();
    Histogram01 merged(360);
    for (std::size_t p = backward.size(); p-- > 0;) {
        merged.merge(std::move(backward[p]).finish());
    }
    expect_same_state(merged, reference);

    auto shuffled = fill();
    std::vector<Histogram01> finished;
    for (auto& partial : shuffled) finished.push_back(std::move(partial).finish());
    rng.shuffle(finished);
    Histogram01 any_order(360);
    for (const auto& partial : finished) any_order.merge(partial);
    expect_same_state(any_order, reference);
}

/// A series trip of `duration` windows and `hops` hops.
MinimalTrip trip_of(Time duration, Hops hops) { return {2, 3, 10, 10 + duration - 1, hops}; }

TEST(OccupancyAccumulator, TableBoundaryDurationsMatchHistogramAdd) {
    // 256 windows is the longest trip the (hops, duration) table counts;
    // 257 takes the per-sample path.  hops == duration puts x = 1 in the
    // last bin on both sides of the boundary.
    Histogram01 reference(3600);
    OccupancyAccumulator acc(3600);
    std::uint64_t ones = 0;
    for (const Time duration : {Time{1}, Time{255}, Time{256}, Time{257}}) {
        for (const Time hops : {Time{1}, duration / 2, duration - 1, duration, duration}) {
            if (hops < 1) continue;
            const MinimalTrip trip = trip_of(duration, static_cast<Hops>(hops));
            reference.add(series_occupancy(trip));
            acc(trip);
            if (hops == duration) ++ones;
        }
    }
    const Histogram01 hist = std::move(acc).finish();
    expect_same_state(hist, reference);
    EXPECT_EQ(hist.counts().back(), ones);
}

TEST(OccupancyAccumulator, TableGrowsMidScanAfterLongTrips) {
    // Long trips first, then short ones whose longest duration rises in
    // steps and falls back, so the table is empty, then grows row by row
    // between per-sample adds.
    Rng rng(31);
    std::vector<MinimalTrip> trips;
    for (int i = 0; i < 500; ++i) {
        const Time duration = rng.uniform_int(257, 1'000'000);
        trips.push_back(trip_of(duration, static_cast<Hops>(rng.uniform_int(1, 256))));
    }
    for (const Time max_duration : {Time{3}, Time{40}, Time{7}, Time{256}, Time{100}}) {
        for (int i = 0; i < 400; ++i) {
            const Time duration = rng.uniform_int(1, max_duration);
            trips.push_back(trip_of(duration, static_cast<Hops>(rng.uniform_int(1, duration))));
            if (i % 50 == 0) {
                trips.push_back(trip_of(rng.uniform_int(257, 5'000),
                                        static_cast<Hops>(rng.uniform_int(1, 257))));
            }
        }
    }
    Histogram01 reference(720);
    OccupancyAccumulator acc(720);
    for (const MinimalTrip& trip : trips) {
        reference.add(series_occupancy(trip));
        acc(trip);
    }
    expect_same_state(std::move(acc).finish(), reference);
}

TEST(OccupancyAccumulator, PartialsHoldingTablesMergeInReverse) {
    // Each partial sees a different longest short duration, so their tables
    // have different sizes; the finished partials merged last-to-first must
    // still equal one Histogram01::add() of every trip.
    Rng rng(37);
    Histogram01 reference(360);
    std::vector<OccupancyAccumulator> partials = empty_partials(5, 360);
    for (std::size_t p = 0; p < partials.size(); ++p) {
        const Time max_duration = Time{1} << (2 * p + 1);  // 2, 8, 32, 128, 512
        for (int i = 0; i < 2'000; ++i) {
            const Time duration = rng.uniform_int(1, max_duration);
            const MinimalTrip trip =
                trip_of(duration, static_cast<Hops>(rng.uniform_int(1, duration)));
            reference.add(series_occupancy(trip));
            partials[p](trip);
        }
    }
    Histogram01 merged(360);
    for (std::size_t p = partials.size(); p-- > 0;) {
        merged.merge(std::move(partials[p]).finish());
    }
    expect_same_state(merged, reference);
}

using IsaGuard = natscale::testing::IsaGuard;

/// `long_count` trips longer than 256 windows (so buffered in the block),
/// interleaved with twice as many short, table-counted ones.  Durations
/// include 257, multiples of the bin count (x * B on a bin edge), hops ==
/// duration (x = 1) and a few beyond 2^52, which the vector paths leave to
/// the scalar reference.
std::vector<MinimalTrip> block_trips(std::uint64_t seed, std::size_t long_count) {
    Rng rng(seed);
    std::vector<MinimalTrip> trips;
    for (std::size_t i = 0; i < long_count; ++i) {
        Time duration = rng.uniform_int(257, 100'000);
        if (i % 7 == 1) duration = 257;
        if (i % 7 == 2) duration = 360 * rng.uniform_int(1, 1'000);
        if (i % 97 == 3) duration = (Time{1} << 52) + rng.uniform_int(0, 1'000);
        Hops hops = static_cast<Hops>(rng.uniform_int(1, std::min<Time>(duration, 5'000)));
        if (i % 11 == 4) hops = static_cast<Hops>(std::min<Time>(duration, 5'000));
        if (i % 13 == 5) hops = 257;
        trips.push_back(trip_of(duration, hops));
        for (int k = 0; k < 2; ++k) {
            const Time d = rng.uniform_int(1, 256);
            trips.push_back(trip_of(d, static_cast<Hops>(rng.uniform_int(1, d))));
        }
    }
    return trips;
}

TEST(OccupancyAccumulator, LongTripBlockBoundariesMatchHistogramAdd) {
    // 0, 1, kBlock - 1, kBlock, kBlock + 1 and 3 kBlock + 7 buffered trips:
    // no drain, only finish()'s partial drain, a full block drained on the
    // last trip, and full blocks followed by partial ones — on every ISA.
    constexpr std::size_t kBlock = OccupancyAccumulator::kBlock;
    IsaGuard guard;
    for (const SimdIsa isa : supported_simd_isas()) {
        ASSERT_TRUE(set_simd_isa(isa));
        for (const std::size_t long_count :
             {std::size_t{0}, std::size_t{1}, kBlock - 1, kBlock, kBlock + 1,
              3 * kBlock + 7}) {
            SCOPED_TRACE(std::string("isa=") + to_string(isa) +
                         " long trips=" + std::to_string(long_count));
            const auto trips = block_trips(long_count + 1, long_count);
            Histogram01 reference(360);
            OccupancyAccumulator acc(360);
            for (const MinimalTrip& trip : trips) {
                reference.add(series_occupancy(trip));
                acc(trip);
            }
            const Histogram01 hist = std::move(acc).finish();
            ASSERT_EQ(hist.total(), 3 * long_count);
            expect_same_state(hist, reference);
        }
    }
}

TEST(OccupancyAccumulator, MovedWithAPartFilledBlockKeepsItsPendingTrips) {
    // The scan fan-out moves partials around; a block still pending when
    // the accumulator moves must reach the histogram of the new owner.
    const auto trips = block_trips(41, OccupancyAccumulator::kBlock + 100);
    const std::size_t half = trips.size() / 2;
    Histogram01 reference(720);
    OccupancyAccumulator first(720);
    for (std::size_t i = 0; i < half; ++i) {
        reference.add(series_occupancy(trips[i]));
        first(trips[i]);
    }
    OccupancyAccumulator moved(std::move(first));
    std::vector<OccupancyAccumulator> owners;
    owners.push_back(std::move(moved));
    for (std::size_t i = half; i < trips.size(); ++i) {
        reference.add(series_occupancy(trips[i]));
        owners.front()(trips[i]);
    }
    OccupancyAccumulator assigned(1);
    assigned = std::move(owners.front());
    expect_same_state(std::move(assigned).finish(), reference);
}

TEST(OccupancyAccumulator, ContinuedHistogramFinishesWithABlockPending) {
    // The online engine continues its sealed histogram through
    // OccupancyAccumulator(Histogram01); a part-filled block left at
    // finish() lands on top of the start state.
    const auto trips = block_trips(43, 2 * OccupancyAccumulator::kBlock + 9);
    Histogram01 reference(3600);
    for (std::size_t i = 0; i < 300; ++i) reference.add(series_occupancy(trips[i]));
    OccupancyAccumulator acc(reference);
    for (std::size_t i = 300; i < trips.size(); ++i) {
        reference.add(series_occupancy(trips[i]));
        acc(trips[i]);
    }
    expect_same_state(std::move(acc).finish(), reference);
}

TEST(OccupancyAccumulator, InvalidTripsThrowOnBothPaths) {
    OccupancyAccumulator acc(100);
    EXPECT_THROW(acc(trip_of(5, 0)), contract_error);      // no hops, short
    EXPECT_THROW(acc(trip_of(300, 0)), contract_error);    // no hops, long
    EXPECT_THROW(acc(trip_of(5, 6)), contract_error);      // hops > duration, short
    EXPECT_THROW(acc(trip_of(256, 257)), contract_error);  // at the table's edge
    EXPECT_THROW(acc(trip_of(300, 301)), contract_error);  // hops > duration, long
    EXPECT_THROW(acc(trip_of(0, 1)), contract_error);      // arr before dep
    EXPECT_THROW(acc(trip_of(5, -1)), contract_error);
    EXPECT_EQ(std::move(acc).finish().total(), 0u);        // nothing was counted
}

}  // namespace
}  // namespace natscale
