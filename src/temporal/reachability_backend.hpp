// Backend selection for temporal-reachability scans.
//
// Two sweep engines implement the identical backward minimal-trip DP:
//
//   dense   (temporal/reachability.hpp)         n^2 x 8 B packed state
//   sparse  (temporal/sparse_reachability.hpp)  16 B per reachable pair
//
// Both emit the exact same trip sequence, so the choice is purely a
// space/time trade-off.  ReachabilityEngine is the facade every caller
// (temporal/sharded_scan and through it core/occupancy, core/delta_sweep
// and core/validation; dist/task_runner; core/saturation and
// core/segmentation) scans through: it holds both
// engines (each allocates its state lazily, on first use) and picks one per
// scan from the node count and the event density.
//
// Selection rule, in order:
//   1. an explicit ReachabilityOptions::backend wins;
//   2. scans feeding a DistanceAccumulator use dense (the accumulator keeps
//      an n^2 table of its own, so sparse state would buy nothing);
//   3. if the dense table would exceed kDenseMemoryBudgetBytes, sparse —
//      this is what makes n = 200k streams feasible at all;
//   4. if the node set is large (>= kSparseMinNodes) and the stream is
//      sparse (average arcs per node <= kSparseDensityLimit), sparse — the
//      merge-based relaxation beats the dense `for v in 0..n` inner loop
//      when reachable sets are small;
//   5. otherwise dense.
#pragma once

#include <algorithm>
#include <cstdint>

#include "temporal/column_shards.hpp"
#include "temporal/reachability.hpp"
#include "temporal/sparse_reachability.hpp"

namespace natscale {

/// Per-pair cost of the dense backend: one packed 64-bit
/// (arrival rank << 32 | hops) word.  The pre-packed kernel spent 12 B
/// (8 B Time + 4 B Hops) per pair; packing raised the node ceiling under
/// the fixed budget below from n ~ 4096 to n ~ 5016 (~22 %).
inline constexpr std::size_t kDensePairBytes = sizeof(TemporalReachability::PackedState);

/// Dense state above this budget (per engine — DeltaSweepEngine clones one
/// engine per worker thread) forces the sparse backend.  192 MiB caps the
/// packed dense table at n ~ 5016 nodes.  The scan's scratch copy of the rows
/// an instant touches comes on top, resident only for the largest set of
/// nodes one instant touches (temporal/reachability.hpp).
inline constexpr std::size_t kDenseMemoryBudgetBytes = std::size_t{192} << 20;

/// Node count from which a sparse-enough stream prefers the sparse backend
/// even though the dense tables would fit the budget.
inline constexpr NodeId kSparseMinNodes = 2048;

/// "Sparse enough": average arcs per node at or below this.
inline constexpr double kSparseDensityLimit = 8.0;

/// Resolves `options.backend` for a scan over `num_nodes` nodes and
/// `total_arcs` instantaneous arcs (series: total edges over all snapshots;
/// stream: event count).  Never returns `automatic`.
/// Precondition: a forced sparse backend cannot accumulate distances.
ReachabilityBackend select_backend(NodeId num_nodes, std::size_t total_arcs,
                                   const ReachabilityOptions& options);

/// The facade: scans with whichever backend select_backend picks.
class ReachabilityEngine {
public:
    template <typename Sink>
    void scan_series(const GraphSeries& series, Sink&& sink,
                     const ReachabilityOptions& options = {}) {
        last_ = select_backend(series.num_nodes(), series.total_edges(), options);
        if (last_ == ReachabilityBackend::dense) {
            dense_.scan_series(series, std::forward<Sink>(sink), options);
        } else {
            sparse_.scan_series(series, std::forward<Sink>(sink), options);
        }
    }

    /// One task of a column-sharded scan (shard `shard_index` of
    /// column_shards(n), covering destination columns `columns`).  A
    /// dense-resolved scan sweeps those columns, clamped to [0, n); the
    /// sparse backend has no column-restricted scan, so shard 0 runs the
    /// whole scan and every other shard emits nothing.  Over all shards the
    /// trips are exactly scan_series's.  The batch fan-out
    /// (temporal/sharded_scan) and the dist TaskRunner both scan through it.
    template <typename Sink>
    void scan_series_shard(const GraphSeries& series, std::uint32_t shard_index,
                           ColumnShard columns, Sink&& sink,
                           const ReachabilityOptions& options = {}) {
        last_ = select_backend(series.num_nodes(), series.total_edges(), options);
        const NodeId n = series.num_nodes();
        if (last_ == ReachabilityBackend::dense) {
            dense_.scan_series_columns(series, std::min(columns.begin, n),
                                       std::min(columns.end, n), std::forward<Sink>(sink),
                                       options);
        } else if (shard_index == 0) {
            sparse_.scan_series(series, std::forward<Sink>(sink), options);
        }
    }

    template <typename Sink>
    void scan_stream(const LinkStream& stream, Sink&& sink,
                     const ReachabilityOptions& options = {}) {
        last_ = select_backend(stream.num_nodes(), stream.num_events(), options);
        if (last_ == ReachabilityBackend::dense) {
            dense_.scan_stream(stream, std::forward<Sink>(sink), options);
        } else {
            sparse_.scan_stream(stream, std::forward<Sink>(sink), options);
        }
    }

    /// Final earliest-arrival state of the last scan, whichever backend ran.
    Time arrival(NodeId u, NodeId v) const {
        return last_ == ReachabilityBackend::dense ? dense_.arrival(u, v)
                                                   : sparse_.arrival(u, v);
    }
    Hops hop_count(NodeId u, NodeId v) const {
        return last_ == ReachabilityBackend::dense ? dense_.hop_count(u, v)
                                                   : sparse_.hop_count(u, v);
    }

    /// Backend used by the most recent scan (dense before any scan).
    ReachabilityBackend last_backend() const noexcept { return last_; }

private:
    ReachabilityBackend last_ = ReachabilityBackend::dense;
    TemporalReachability dense_;
    SparseTemporalReachability sparse_;
};

}  // namespace natscale
