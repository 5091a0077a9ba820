// Streaming histogram of occupancy rates on (0, 1].
//
// The occupancy method evaluates the distribution of occupancy rates of all
// minimal trips of every aggregated series; for real datasets this means up
// to hundreds of millions of samples per Delta, which must not be stored.
// Histogram01 accumulates counts in B equal bins together with the exact
// first two moments; the uniformity metrics are then computed from the
// binned inverse cumulative distribution with error O(1/B).
//
// Bin j (0-based) represents the half-open interval (j/B, (j+1)/B]; all mass
// of a bin is treated as sitting at its right edge, which is exact for
// occupancy rates of the form hops/duration == 1 and pessimistic by at most
// one bin width elsewhere.  The default B = 3600 is divisible by the Shannon
// slot counts used in the paper's Section 7 (5, 10, 20, 100).
//
// Accumulation is split-invariant: the bins are integers and the moments are
// kept in exact fixed-point superaccumulators (stats/exact_sum.hpp), so
// splitting a sample stream into partial histograms at ANY boundaries and
// merge()-ing them reproduces the single-accumulator bins, total, mean and
// stddev bit-for-bit.  This is what lets the column-sharded parallel
// reachability scans (temporal/column_shards.hpp) accumulate per-shard
// partials concurrently while staying bit-identical to the sequential scan
// at every thread count.
//
// add() is the general entry point.  The per-minimal-trip hot path of every
// front door (batch sweep, occupancy_histogram, online engine, dist task
// runner) instead fills a histogram through an OccupancyAccumulator
// (stats/occupancy_accumulator.hpp): trips of at most 256 windows are
// counted per (hops, duration) and binned once per distinct pair, longer
// ones are buffered and binned 256 at a time by a vectorised
// simd::Ops::occupancy_bins call that applies clamp_and_bin's formula, and
// the moments are summed per exponent in 128-bit integers, then folded
// exactly into the ExactSums.  The last partial block is drained and the
// fold happens in `std::move(acc).finish()`, the only way to get the
// histogram back out, so no scan can skip them; the resulting state is
// bit-identical to add()-ing every sample.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "stats/exact_sum.hpp"

namespace natscale {

class Histogram01 {
public:
    static constexpr std::size_t kDefaultBins = 3600;

    explicit Histogram01(std::size_t num_bins = kDefaultBins);

    /// Adds a sample; values outside (0, 1] — including +/-infinity — are
    /// clamped to the end bins (and to 0/1 in the moment accumulators); NaN
    /// samples are dropped (they carry no information, and unguarded they
    /// would index out of bounds).
    void add(double x) noexcept;

    /// Adds `count` samples of the same value.
    void add(double x, std::uint64_t count) noexcept;

    /// Merges another histogram with the same bin count.  Exact: merging a
    /// set of partials reproduces the single-accumulator state bit-for-bit
    /// regardless of how the samples were split across them.
    void merge(const Histogram01& other);

    std::size_t num_bins() const noexcept { return counts_.size(); }
    std::uint64_t total() const noexcept { return total_; }
    bool empty() const noexcept { return total_ == 0; }

    double mean() const noexcept;
    double population_stddev() const noexcept;

    const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

    /// The exact moment accumulators (Sigma x and Sigma x^2 of the clamped
    /// samples) — together with counts() the histogram's complete state,
    /// exposed for checkpoint serialization (online/checkpoint).
    const ExactSum& moment_sum() const noexcept { return sum_; }
    const ExactSum& moment_sum_sq() const noexcept { return sum_sq_; }

    /// Rebuilds a histogram from state previously read back through
    /// counts() / total() / moment_sum() / moment_sum_sq(); the result is
    /// bit-identical to the accumulator it was read from.
    /// Preconditions: counts non-empty and counts_sum_to(counts, total).
    static Histogram01 restore(std::vector<std::uint64_t> counts, std::uint64_t total,
                               ExactSum sum, ExactSum sum_sq);

    /// True iff `counts` add up to exactly `total` in unbounded arithmetic: a
    /// sum that wraps past 2^64 is rejected, not compared modulo 2^64.  The
    /// check for counts read back from untrusted bytes (checkpoints, dist
    /// partials) before they reach restore().
    static bool counts_sum_to(std::span<const std::uint64_t> counts,
                              std::uint64_t total) noexcept;

    /// P(X > j/B) for j = 0..B: survival function at all bin edges.
    std::vector<double> survival_at_edges() const;

    /// The binned ICD as a polyline (lambda, P(X > lambda)), skipping runs of
    /// empty bins; suitable for plotting Fig. 3/4.
    std::vector<std::pair<double, double>> icd_points() const;

private:
    friend class OccupancyAccumulator;

    /// The binning rule, shared with OccupancyAccumulator (and restated
    /// lane-wise by simd::Ops::occupancy_bins): clamps `x` into
    /// [0, 1] (-inf and values <= 0 to 0, +inf and values >= 1 to 1) and
    /// returns its bin, ceil(x * B) - 1 inside (0, 1).
    /// Precondition: x is not NaN.
    std::size_t clamp_and_bin(double& x) const noexcept {
        const std::size_t bins = counts_.size();
        if (x <= 0.0) {
            x = 0.0;  // clamp the moment contribution too (-inf would poison sum_)
            return 0;
        }
        if (x >= 1.0) {
            x = 1.0;
            return bins - 1;
        }
        // Bin j covers (j/B, (j+1)/B]: index = ceil(x*B) - 1.
        const auto idx =
            static_cast<std::size_t>(std::ceil(x * static_cast<double>(bins))) - 1;
        return idx < bins ? idx : bins - 1;
    }

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    ExactSum sum_;     // exact Sigma x   (clamped samples, so x in [0, 1])
    ExactSum sum_sq_;  // exact Sigma x^2
};

}  // namespace natscale
