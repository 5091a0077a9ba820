#include "core/occupancy.hpp"

#include <functional>

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
    const ReachabilityOptions scan_options = options_for(backend);
    const std::vector<const GraphSeries*> series_ptrs = {&series};
    const ShardedScanPlan plan = plan_sharded_scans(series_ptrs, scan_options);
    if (scan_threads == 1 || plan.tasks.size() <= 1) {
        OccupancyAccumulator acc(num_bins);
        ReachabilityEngine engine;
        engine.scan_series(series, acc, scan_options);
        return std::move(acc).finish();
    }

    // Column-parallel dense scan through the shared sharded-scan driver:
    // one full backward sweep per shard, each into its own partial, merged
    // in ascending shard order.  Bit-identical to the sequential scan above
    // for every thread count (split-invariant accumulators + fixed shard
    // structure).  The pool is per call; its spawn/join cost is microseconds
    // against the multi-ms scans where sharding pays — loops over many
    // periods should use DeltaSweepEngine, which keeps one pool alive.
    ThreadPool pool(std::min<std::size_t>(ThreadPool::resolve_concurrency(scan_threads),
                                          plan.tasks.size()));
    std::vector<OccupancyAccumulator> partials = occupancy_partials(plan.tasks.size(), num_bins);
    run_sharded_scans(pool, series_ptrs, plan, scan_options, pool.concurrency(),
                      [&](std::size_t task, const GraphSeries&) {
                          return std::ref(partials[task]);
                      });
    return finish_and_merge(partials);
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
