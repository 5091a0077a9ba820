#include "layers.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/delta_sweep.hpp"
#include "gate.hpp"
#include "sampling.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability_backend.hpp"

namespace natbench {

using namespace natscale;

namespace {

/// Occupancy rates buffered per Histogram01::add batch: large enough that
/// the two clock reads per chunk are noise, small enough to stay in cache.
constexpr std::size_t kChunk = std::size_t{1} << 16;

/// Largest |layer sum - wall| / wall the replay may show before its
/// numbers are rejected as not accounting for where the time went.
constexpr double kReconcileTolerance = 0.05;

DeltaSweepOptions single_threaded(const SweepConfig& config) {
    DeltaSweepOptions options = sweep_options_of(config);
    options.num_threads = 1;
    return options;
}

}  // namespace

double now_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

GridEvaluator RoundLog::wrap(GridEvaluator inner) {
    return [this, inner = std::move(inner)](std::span<const Time> grid,
                                            std::vector<Histogram01>* histograms) {
        const double start = now_s();
        std::vector<DeltaPoint> points = inner(grid, histograms);
        seconds.push_back(now_s() - start);
        grids.emplace_back(grid.begin(), grid.end());
        return points;
    };
}

double RoundLog::total_seconds() const {
    double total = 0.0;
    for (const double s : seconds) total += s;
    return total;
}

std::size_t RoundLog::total_deltas() const {
    std::size_t total = 0;
    for (const auto& grid : grids) total += grid.size();
    return total;
}

Replay replay_points(const LinkStream& stream, const SweepConfig& config,
                     std::span<const DeltaPoint> expected) {
    Replay replay;
    const double start = now_s();
    const DeltaSweepEngine engine(stream, single_threaded(config));
    replay.engine_setup_s = now_s() - start;
    replay.pair_index = engine.uses_pair_index();

    ReachabilityEngine reach;
    ReachabilityOptions scan_options;
    scan_options.backend = config.backend;
    std::vector<double> buffer;
    buffer.reserve(kChunk);
    for (const DeltaPoint& want : expected) {
        const double begin = now_s();
        const GraphSeries series = engine.aggregate(want.delta);
        const double aggregated = now_s();
        replay.aggregate_s += aggregated - begin;
        replay.snapshot_edges += series.total_edges();
        const ReachabilityBackend backend =
            select_backend(series.num_nodes(), series.total_edges(), scan_options);
        ++(backend == ReachabilityBackend::dense ? replay.dense_deltas : replay.sparse_deltas);

        Histogram01 histogram(config.histogram_bins);
        double accumulate = 0.0;
        const auto flush = [&] {
            const double s = now_s();
            for (const double x : buffer) histogram.add(x);
            accumulate += now_s() - s;
            buffer.clear();
        };
        reach.scan_series(
            series,
            [&](const MinimalTrip& trip) {
                buffer.push_back(series_occupancy(trip));
                if (buffer.size() == kChunk) flush();
            },
            scan_options);
        flush();
        const double scanned = now_s();
        replay.scan_s += scanned - aggregated - accumulate;
        replay.accumulate_s += accumulate;

        const DeltaPoint got = score_delta_point(want.delta, histogram, config.shannon_slots);
        replay.score_s += now_s() - scanned;
        replay.trips += histogram.total();
        if (!identical(got, want) || reach.last_backend() != backend) {
            replay.mismatches.push_back("replayed point at delta " +
                                        std::to_string(want.delta) + " differs");
        }
    }
    replay.wall_s = now_s() - start;
    return replay;
}

std::vector<double> delta_span_ns(const obs::TraceSink& sink) {
    std::vector<double> durations;
    for (const obs::SpanRecord& span : sink.recent()) {
        if (span.name != nullptr && std::strcmp(span.name, "sweep.delta") == 0) {
            durations.push_back(static_cast<double>(span.duration_ns));
        }
    }
    return durations;
}

void report_replay(Record& record, const Replay& replay, double load_s) {
    const double trips = static_cast<double>(replay.trips);
    const double unaccounted = replay.wall_s - replay.layer_sum();
    const double unaccounted_ratio = replay.wall_s > 0 ? std::abs(unaccounted) / replay.wall_s : 0;
    record.metric("linkstream.load_s", load_s);
    record.metric("linkstream.aggregate_s", replay.aggregate_s);
    record.metric("linkstream.snapshot_edges", static_cast<double>(replay.snapshot_edges));
    record.metric("core.engine_setup_s", replay.engine_setup_s);
    record.metric("temporal.scan_s", replay.scan_s);
    record.metric("temporal.trips", trips);
    record.metric("temporal.ns_per_trip", trips > 0 ? replay.scan_s / trips * 1e9 : 0.0);
    record.metric("temporal.dense_deltas", static_cast<double>(replay.dense_deltas));
    record.metric("temporal.sparse_deltas", static_cast<double>(replay.sparse_deltas));
    record.metric("stats.accumulate_s", replay.accumulate_s);
    record.metric("stats.ns_per_trip", trips > 0 ? replay.accumulate_s / trips * 1e9 : 0.0);
    record.metric("stats.score_s", replay.score_s);
    record.metric("replay.wall_s", replay.wall_s);
    record.metric("replay.unaccounted_ratio", unaccounted_ratio);
    record.attempted += replay.dense_deltas + replay.sparse_deltas;
    for (const std::string& mismatch : replay.mismatches) record.fail_gate(mismatch);
    if (unaccounted_ratio > kReconcileTolerance) {
        record.fail_gate("replay layer self-times miss " +
                         std::to_string(unaccounted_ratio * 100) + "% of its wall time");
    }

    const struct {
        const char* layer;
        double seconds;
    } rows[] = {
        {"core (engine setup)", replay.engine_setup_s},
        {"linkstream (aggregate)", replay.aggregate_s},
        {"temporal (scan)", replay.scan_s},
        {"stats (accumulate)", replay.accumulate_s},
        {"stats (score)", replay.score_s},
        {"unaccounted", unaccounted},
    };
    std::printf("replay of %llu periods, single-threaded, %s aggregation: %.3f s wall\n",
                static_cast<unsigned long long>(replay.dense_deltas + replay.sparse_deltas),
                replay.pair_index ? "pair-index" : "chunked", replay.wall_s);
    std::printf("  %-24s %10s %7s\n", "layer", "self_s", "share");
    for (const auto& row : rows) {
        std::printf("  %-24s %10.4f %6.1f%%\n", row.layer, row.seconds,
                    replay.wall_s > 0 ? 100.0 * row.seconds / replay.wall_s : 0.0);
    }
}

void note_input(Record& record, const LinkStream& stream, const SweepConfig& config,
                std::span<const Time> deltas) {
    record.note("input_nodes", static_cast<double>(stream.num_nodes()));
    record.note("input_events", static_cast<double>(stream.num_events()));
    record.note("input_period_end", static_cast<double>(stream.period_end()));
    record.note("input_directed", stream.directed() ? "true" : "false");
    record.note("num_threads", static_cast<double>(config.num_threads));
    record.note("scan_threads", static_cast<double>(config.scan_threads));

    const DeltaSweepEngine engine(stream, single_threaded(config));
    record.note("aggregation", engine.uses_pair_index() ? "pair_index" : "chunked");
    ReachabilityOptions scan_options;
    scan_options.backend = config.backend;
    std::string backends;
    std::uint64_t dense = 0;
    for (const Time delta : deltas) {
        const GraphSeries series = engine.aggregate(delta);
        const bool is_dense = select_backend(series.num_nodes(), series.total_edges(),
                                             scan_options) == ReachabilityBackend::dense;
        dense += is_dense ? 1 : 0;
        backends += is_dense ? 'D' : 'S';
    }
    record.note("dense_deltas", static_cast<double>(dense));
    record.note("sparse_deltas", static_cast<double>(deltas.size() - dense));
    record.note("backend_per_delta", backends);
}

}  // namespace natbench
