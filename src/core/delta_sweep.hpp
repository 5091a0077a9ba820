// Batched evaluation of a whole grid of aggregation periods (the hot path
// of the occupancy method).
//
// The saturation-scale search evaluates the occupancy distribution over
// dozens of aggregation periods Delta of the SAME stream.  Evaluating each
// period independently (linkstream/aggregation + one reachability scan)
// re-does per-window edge sorting and deduplication from scratch every
// time; DeltaSweepEngine shares that work across the grid:
//
//   * the time-sorted event buffer is shared (it lives behind the
//     LinkStream's EventSource — in RAM or an mmap'd .natbin trace);
//   * the engine picks the aggregation from that storage.  For an in-RAM
//     source it computes one extra (u, v, t)-ordered index over the buffer
//     at construction, so aggregating at any Delta is a single O(E) pass:
//     window boundaries come from the time order, per-window edge lists
//     come out of the pair order already sorted and deduplicated — no
//     per-window sort, no per-call dedup.  For an mmap-backed source it
//     builds no index and runs the chunked window-sequential pipeline of
//     linkstream/aggregation instead, whose peak residency is the
//     per-window working set, not the trace (a RAM index would cost
//     4 B/event, and its random access would fault the whole trace in);
//   * the independent per-Delta reachability scans fan out over a
//     util/thread_pool through the batch scan driver
//     (temporal/sharded_scan), with one reusable ReachabilityEngine per
//     worker so the O(n^2) sweep state is allocated once per thread, not
//     once per period.
//
// Results are deterministic and thread-count independent: every task
// writes its own partial slot, each period's partials merge in a fixed
// order, and the per-period computation is bit-identical to the legacy
// single-period path (same snapshot edge order, same trip emission order,
// same floating-point accumulation order).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "linkstream/link_stream.hpp"
#include "natscale/sweep_config.hpp"
#include "stats/histogram01.hpp"
#include "stats/uniformity.hpp"
#include "temporal/reachability.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

namespace natscale {

/// One evaluated aggregation period.
struct DeltaPoint {
    Time delta = 0;                 // ticks
    UniformityScores scores;        // all five Section 7 metrics
    std::uint64_t num_trips = 0;    // minimal trips of G_Delta
    double occupancy_mean = 0.0;
};

/// Scores one evaluated period from its occupancy histogram: all five
/// uniformity metrics, trip count and mean.  This is THE per-period
/// evaluation — evaluate() applies it to every grid point, and the online
/// engine (online/incremental_sweep) applies it to incrementally maintained
/// histograms, so batch and online points are computed by the same code.
DeltaPoint score_delta_point(Time delta, const Histogram01& histogram,
                             std::size_t shannon_slots);

struct DeltaSweepOptions {
    /// Occupancy histogram resolution.
    std::size_t histogram_bins = Histogram01::kDefaultBins;

    /// Slot count for the Shannon-entropy metric (Section 7 uses 10).
    std::size_t shannon_slots = 10;

    /// Threads for the per-Delta fan-out; 0 = hardware concurrency, 1 =
    /// fully sequential (no pool threads are spawned).
    std::size_t num_threads = 0;

    /// Intra-scan column parallelism (temporal/column_shards): any value
    /// other than 1 (the default) lets evaluate() decompose the dense scans
    /// of a narrow Delta grid — one narrower than the pool, which
    /// whole-period tasks alone cannot keep busy — into per-column-shard
    /// tasks, fanned out over at most scan_threads workers (0 = hardware
    /// concurrency) of the SAME num_threads-wide pool.  num_threads stays
    /// THE overall concurrency (and engine-memory) cap, so with
    /// num_threads == 1 this option is inert.  Results are bit-identical
    /// for every (num_threads, scan_threads) combination: the shard
    /// structure depends on n alone, partials merge in fixed ascending
    /// order, and the histogram accumulators are split-invariant.
    std::size_t scan_threads = 1;

    /// Reachability backend of the per-Delta scans.  `automatic` picks dense
    /// or sparse from n and event density (temporal/reachability_backend);
    /// the evaluated points are bit-identical either way, but the sparse
    /// backend bounds per-worker memory by the reachable-pair count instead
    /// of threads x n^2 x kDensePairBytes (8 B).
    ReachabilityBackend backend = ReachabilityBackend::automatic;
};

class DeltaSweepEngine {
public:
    /// Prepares `stream` for repeated aggregation.  A memory-resident stream
    /// is indexed once: one O(E log E) pair-order sort, amortized over every
    /// later evaluate()/aggregate() call.  An mmap-backed stream gets no
    /// index, and each aggregate() is one sequential chunked pass.  The
    /// stream must outlive the engine.
    /// Preconditions: a memory-resident stream holds at most 2^32 - 1
    /// events; an mmap-backed one has no such limit.
    explicit DeltaSweepEngine(const LinkStream& stream, DeltaSweepOptions options = {});

    const LinkStream& stream() const noexcept { return *stream_; }
    const DeltaSweepOptions& options() const noexcept { return options_; }

    /// Evaluates every period of `grid` (occupancy histogram + all five
    /// uniformity metrics), in grid order.  When `histograms_out` is
    /// non-null it receives the per-period occupancy histograms, aligned
    /// with the returned points.  Periods are independent, so they run in
    /// parallel; the result is identical for any thread count.
    /// Preconditions: every delta >= 1.
    std::vector<DeltaPoint> evaluate(std::span<const Time> grid,
                                     std::vector<Histogram01>* histograms_out = nullptr);

    /// Shared-buffer aggregation at one period: same GraphSeries as
    /// linkstream/aggregation's aggregate(stream, delta).  With the pair
    /// index it is built in O(E) plus a transient 4 B/event slot array per
    /// call; otherwise it is that chunked aggregate() itself.  Thread-safe
    /// (const).
    /// Preconditions: delta >= 1.
    GraphSeries aggregate(Time delta) const;

    /// True when aggregate() goes through the pair-order index, which is
    /// exactly when stream().source().memory_resident(); false means the
    /// chunked pipeline.
    bool uses_pair_index() const noexcept { return use_pair_index_; }

private:
    ThreadPool& pool();
    void build_pair_index();

    const LinkStream* stream_;
    DeltaSweepOptions options_;
    bool use_pair_index_;

    /// Event indices sorted by (u, v, t) — the stable pair-order view of
    /// the shared time-sorted event buffer.  Empty in chunked mode.
    std::vector<std::uint32_t> pair_order_;

    /// Created on first evaluate(); aggregate()-only users never pay for
    /// pool threads.
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace natscale
