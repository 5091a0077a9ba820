// Per-layer timing from outside the library: every number here comes from
// timing calls into a layer's public functions from the benchmark's own
// code, plus the library's existing `sweep.delta` trace spans.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/saturation.hpp"
#include "linkstream/link_stream.hpp"
#include "natscale/sweep_config.hpp"
#include "obs/trace.hpp"
#include "record.hpp"

namespace natbench {

/// Wall-clock seconds on the steady clock.
double now_s();

/// A GridEvaluator decorator recording each round's grid and wall time.
struct RoundLog {
    std::vector<std::vector<natscale::Time>> grids;
    std::vector<double> seconds;

    natscale::GridEvaluator wrap(natscale::GridEvaluator inner);
    double total_seconds() const;
    std::size_t total_deltas() const;
};

/// Single-threaded replay of a set of periods through the layers one at a
/// time: DeltaSweepEngine::aggregate (linkstream), ReachabilityEngine::
/// scan_series (temporal) into a buffer of occupancy rates, Histogram01::add
/// on each full buffer chunk (stats), then score_delta_point (stats).
struct Replay {
    double engine_setup_s = 0.0;  // DeltaSweepEngine constructor
    double aggregate_s = 0.0;
    double scan_s = 0.0;          // scan self time: buffered scan minus accumulate
    double accumulate_s = 0.0;
    double score_s = 0.0;
    double wall_s = 0.0;          // the whole replay, engine setup included
    std::uint64_t snapshot_edges = 0;
    std::uint64_t trips = 0;
    std::uint64_t dense_deltas = 0;
    std::uint64_t sparse_deltas = 0;
    bool pair_index = false;
    /// Replayed points that differ from the expected ones.
    std::vector<std::string> mismatches;

    double layer_sum() const {
        return engine_setup_s + aggregate_s + scan_s + accumulate_s + score_s;
    }
};

/// Replays `expected`'s periods and checks each replayed point against it.
Replay replay_points(const natscale::LinkStream& stream, const natscale::SweepConfig& config,
                     std::span<const natscale::DeltaPoint> expected);

/// `sweep.delta` span durations (ns) in a sink's ring.
std::vector<double> delta_span_ns(const natscale::obs::TraceSink& sink);

/// Adds the replay's linkstream/core/temporal/stats metrics to `record`,
/// checks that its layer self-times reconcile with its wall time, and
/// prints the per-layer share table.
void report_replay(Record& record, const Replay& replay, double load_s);

/// Provenance every record carries: input shape, thread configuration,
/// aggregation path (DeltaSweepEngine::uses_pair_index) and the backend
/// each of `deltas` resolves to (select_backend on its aggregated series).
void note_input(Record& record, const natscale::LinkStream& stream,
                const natscale::SweepConfig& config, std::span<const natscale::Time> deltas);

}  // namespace natbench
