// Per-scan sink that fills an occupancy histogram from minimal trips.
//
// Short trips are counted, not summed.  A trip's occupancy rate h/d is a
// function of its (hops, duration) pair alone, and short trips repeat few
// pairs: on the irvine replica every period of at most 256 windows has fewer
// than 2.1k distinct pairs among millions of trips.  So a trip of at most
// kShortWindows = 256 windows only increments a count in a triangular table
// at key d(d-1)/2 + h-1.  Row d's offset does not depend on later rows, so
// the table grows lazily to the longest short duration seen: a scan with no
// short trips allocates nothing, and the largest table is 257 KiB.
// finish() folds each nonzero key once: c samples of x = h/d land in x's bin
// and add mantissa(x) * c to the moment slots below.
//
// Longer trips are buffered as (hops, duration) pairs in a block of
// kBlock = 256.  When the block fills, drain() bins all of it with one
// simd::Ops::occupancy_bins call, which divides, bins and squares the rates
// in vector registers (bit-identical to the scalar division and ceil: every
// step is one correctly rounded IEEE operation), and a scalar loop then adds
// the counts and the moment slots below.  So the per-trip sink only stores
// two integers and stays small enough to inline into the scan kernel.
//
// Those long trips, and add(double), avoid what Histogram01::add() spends
// most of its per-sample time in: two ExactSum::add() calls (Sigma x and
// Sigma x^2), each a 128-bit multiply and a carry-rippling add into up to
// three limbs.  Occupancy rates lie in (0, 1], so the doubles fed to the
// moments have few distinct exponents: this accumulator adds each 53-bit
// significand into a 128-bit integer slot indexed by 1023 - biased
// exponent, and folds the slots into the histogram's ExactSums once, with
// ExactSum::add_mantissa_sum().
//
// Each moment has 128 slots, covering values down to 2^-127, so both
// moments are slotted for every x >= 2^-63: every occupancy rate
// hops/duration with a 64-bit duration.  Any other value (only add(double)
// can supply one) goes through ExactSum::add().  A slot cannot overflow: a
// histogram holds at most 2^64 samples, each adding less than 2^53.
//
// All paths sum the same multiset of doubles in integers, which is exact,
// so the folded state equals Histogram01::add() of every sample, limb for
// limb, however the trips were split between table, block and slots.
//
// Flush rule: the histogram lives inside the accumulator until
// `std::move(acc).finish()`, which drains the last partial block, folds the
// table and the slots and hands the histogram back, so a scan cannot return
// a histogram that was never folded.  One accumulator serves one scan (or
// one partial of a sharded scan) on one thread; it holds 4 KiB of slots,
// the 3 KiB block and the table on top of the histogram.
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

    /// Adds the trip's occupancy rate, with series_occupancy's contract
    /// checks.
    void operator()(const MinimalTrip& trip) {
        const Time duration = checked_series_duration(trip);
        if (duration <= kShortWindows) {
            const auto d = static_cast<std::size_t>(duration);
            const std::size_t key = d * (d - 1) / 2 + static_cast<std::size_t>(trip.hops - 1);
            if (key >= short_counts_.size()) short_counts_.resize(d * (d + 1) / 2);
            ++short_counts_[key];
        } else {
            block_hops_[block_size_] = trip.hops;
            block_durations_[block_size_] = static_cast<std::uint64_t>(duration);
            if (++block_size_ == kBlock) drain();
        }
    }

    /// Adds one sample exactly as Histogram01::add(x) would: NaN dropped,
    /// values outside (0, 1] clamped, same bin.
    void add(double x) {
        if (std::isnan(x)) return;
        add_clamped(x, 1);
    }

    /// Drains the pending long trips, folds the short-trip table and the
    /// slots into the histogram and returns it — bit-identical to
    /// Histogram01::add() of every trip.
    Histogram01 finish() &&;

    /// Long trips buffered before one occupancy_bins call.
    static constexpr std::size_t kBlock = 256;

private:
    /// Trips of at most this many windows are counted by (hops, duration).
    static constexpr Time kShortWindows = 256;
    static constexpr std::size_t kSlots = 128;
    using Slots = std::array<unsigned __int128, kSlots>;

    /// `count` samples of the non-NaN value `x`.
    void add_clamped(double x, std::uint64_t count) {
        const std::size_t idx = hist_.clamp_and_bin(x);
        hist_.counts_[idx] += count;
        hist_.total_ += count;
        add_moment(sum_slots_, hist_.sum_, std::bit_cast<std::uint64_t>(x), count);
        add_moment(sum_sq_slots_, hist_.sum_sq_, std::bit_cast<std::uint64_t>(x * x), count);
    }

    /// `count` samples of the value with bit pattern `bits`, in [0, 1].
    static void add_moment(Slots& slots, ExactSum& exact, std::uint64_t bits,
                           std::uint64_t count) {
        // The sign bit is 0; exponents above 1023 wrap to huge slot numbers
        // and take the fallback with 0 and subnormals.
        const std::uint64_t slot = 1023 - (bits >> 52);
        if (slot < kSlots) {
            const std::uint64_t mantissa =
                (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
            slots[slot] += static_cast<unsigned __int128>(mantissa) * count;  // < 2^117
        } else {
            exact.add(std::bit_cast<double>(bits), count);
        }
    }

    /// Bins the buffered long trips and empties the block.
    void drain();

    static void fold(const Slots& slots, ExactSum& exact);

    Histogram01 hist_;
    Slots sum_slots_{};
    Slots sum_sq_slots_{};
    // Trips of duration d <= kShortWindows with h hops, at d(d-1)/2 + h-1;
    // always a whole number of rows.
    std::vector<std::uint64_t> short_counts_;
    // The pending long trips, block_size_ < kBlock of them between calls.
    std::size_t block_size_ = 0;
    std::array<Hops, kBlock> block_hops_{};
    std::array<std::uint64_t, kBlock> block_durations_{};
};

/// Finishes every partial and merges them in ascending order — the fixed
/// merge order that keeps sharded scans thread-count independent.
/// Precondition: `partials` is non-empty.
Histogram01 finish_and_merge(std::span<OccupancyAccumulator> partials);

}  // namespace natscale
