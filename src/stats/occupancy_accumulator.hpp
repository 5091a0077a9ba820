// Per-scan sink that fills an occupancy histogram from minimal trips.
//
// Histogram01::add() spends most of its per-sample time in two
// ExactSum::add() calls (Sigma x and Sigma x^2), each a 128-bit multiply and
// a carry-rippling add into up to three limbs.  Occupancy rates lie in
// (0, 1], so the doubles fed to the moments have few distinct exponents:
// this accumulator adds each 53-bit significand into a 128-bit integer slot
// indexed by 1023 - biased exponent, and folds the slots into the
// histogram's ExactSums once, with ExactSum::add_mantissa_sum().  Integer
// addition is exact, so the folded state equals add()-ing every sample,
// limb for limb.
//
// Each moment has 128 slots, covering values down to 2^-127, so both
// moments are slotted for every x >= 2^-63: every occupancy rate
// hops/duration with a 64-bit duration.  Any other value (only add(double)
// can supply one) goes through ExactSum::add().  A slot cannot overflow: a
// histogram holds at most 2^64 samples, each adding less than 2^53.
//
// Flush rule: the histogram lives inside the accumulator until
// `std::move(acc).finish()`, which folds the slots and hands it back, so a
// scan cannot return a histogram whose slots were never folded.  One
// accumulator serves one scan (or one partial of a sharded scan) on one
// thread; it holds 4 KiB of slots on top of the histogram.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/histogram01.hpp"
#include "temporal/minimal_trip.hpp"

namespace natscale {

class OccupancyAccumulator {
public:
    /// Starts from an empty histogram of `num_bins` bins.
    explicit OccupancyAccumulator(std::size_t num_bins);

    /// Continues an existing histogram (e.g. the online engine's sealed
    /// state); finish() returns it with the new trips added.
    explicit OccupancyAccumulator(Histogram01 start) noexcept;

    // Passed by reference as a scan sink; a copy would silently drop the
    // trips it received, so copying is disabled.
    OccupancyAccumulator(const OccupancyAccumulator&) = delete;
    OccupancyAccumulator& operator=(const OccupancyAccumulator&) = delete;
    OccupancyAccumulator(OccupancyAccumulator&&) noexcept = default;
    OccupancyAccumulator& operator=(OccupancyAccumulator&&) noexcept = default;

    /// Adds the trip's occupancy rate (series_occupancy, contract checks
    /// included).
    void operator()(const MinimalTrip& trip) { add(series_occupancy(trip)); }

    /// Adds one sample exactly as Histogram01::add(x) would: NaN dropped,
    /// values outside (0, 1] clamped, same bin.
    void add(double x) {
        if (std::isnan(x)) return;
        const std::size_t idx = hist_.clamp_and_bin(x);
        ++hist_.counts_[idx];
        ++hist_.total_;
        add_moment(sum_slots_, hist_.sum_, x);
        add_moment(sum_sq_slots_, hist_.sum_sq_, x * x);
    }

    /// Folds the slots into the moment accumulators and returns the
    /// histogram — bit-identical to Histogram01::add() of every trip.
    Histogram01 finish() &&;

private:
    static constexpr std::size_t kSlots = 128;
    using Slots = std::array<unsigned __int128, kSlots>;

    static void add_moment(Slots& slots, ExactSum& exact, double x) {
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
        // x in [0, 1] here, so the sign bit is 0; exponents above 1023 wrap
        // to huge slot numbers and take the fallback with 0 and subnormals.
        const std::uint64_t slot = 1023 - (bits >> 52);
        if (slot < kSlots) {
            slots[slot] += (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
        } else {
            exact.add(x);
        }
    }

    static void fold(const Slots& slots, ExactSum& exact);

    Histogram01 hist_;
    Slots sum_slots_{};
    Slots sum_sq_slots_{};
};

/// `count` empty accumulators of `num_bins` bins: one per task of a sharded
/// scan, each filled by exactly one task.
std::vector<OccupancyAccumulator> occupancy_partials(std::size_t count, std::size_t num_bins);

/// Finishes every partial and merges them in ascending order — the fixed
/// merge order that keeps sharded scans thread-count independent.
/// Precondition: `partials` is non-empty.
Histogram01 finish_and_merge(std::span<OccupancyAccumulator> partials);

}  // namespace natscale
