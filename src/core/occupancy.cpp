#include "core/occupancy.hpp"

#include "linkstream/aggregation.hpp"
#include "stats/occupancy_accumulator.hpp"
#include "temporal/reachability_backend.hpp"
#include "temporal/sharded_scan.hpp"
#include "util/thread_pool.hpp"

namespace natscale {

namespace {

ReachabilityOptions options_for(ReachabilityBackend backend) {
    ReachabilityOptions options;
    options.backend = backend;
    return options;
}

}  // namespace

Histogram01 occupancy_histogram(const GraphSeries& series, std::size_t num_bins,
                                ReachabilityBackend backend, std::size_t scan_threads) {
    // A one-item fan-out: scan_threads == 1 scans on the calling thread (a
    // pool of one spawns nothing); otherwise the pool is per call, and its
    // spawn/join cost is microseconds against the multi-ms scans where
    // sharding pays — loops over many periods should use DeltaSweepEngine,
    // which keeps one pool alive.
    ThreadPool pool(scan_threads);
    Histogram01 hist(num_bins);
    scan_fan_out(
        pool, 1, scan_threads, options_for(backend),
        [&](std::size_t) -> const GraphSeries& { return series; },
        [&] { return OccupancyAccumulator(num_bins); },
        partial_as_sink,
        [&](std::size_t, std::span<OccupancyAccumulator> partials) {
            hist = finish_and_merge(partials);
        });
    return hist;
}

Histogram01 occupancy_histogram(const LinkStream& stream, Time delta, std::size_t num_bins,
                                ReachabilityBackend backend, std::size_t scan_threads) {
    return occupancy_histogram(aggregate(stream, delta), num_bins, backend, scan_threads);
}

Histogram01 occupancy_histogram(const LinkStream& stream, Time delta,
                                const SweepConfig& config) {
    return occupancy_histogram(stream, delta, config.histogram_bins, config.backend,
                               config.scan_threads);
}

EmpiricalDistribution occupancy_distribution(const GraphSeries& series,
                                             ReachabilityBackend backend) {
    EmpiricalDistribution dist;
    ReachabilityEngine engine;
    engine.scan_series(series, [&](const MinimalTrip& trip) {
        dist.add(series_occupancy(trip));
    }, options_for(backend));
    return dist;
}

std::uint64_t count_minimal_trips(const GraphSeries& series, ReachabilityBackend backend) {
    std::uint64_t count = 0;
    ReachabilityEngine engine;
    engine.scan_series(series, [&](const MinimalTrip&) { ++count; }, options_for(backend));
    return count;
}

}  // namespace natscale
