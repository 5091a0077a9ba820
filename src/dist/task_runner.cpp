#include "dist/task_runner.hpp"

#include "linkstream/aggregation.hpp"
#include "stats/occupancy_accumulator.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/contracts.hpp"

namespace natscale::dist {

TaskRunner::TaskRunner(const LinkStream& stream, std::size_t histogram_bins,
                       std::uint32_t backend)
    : stream_(&stream), bins_(histogram_bins), backend_(backend) {
    NATSCALE_EXPECTS(bins_ > 0);
}

Histogram01 TaskRunner::run(const DistTask& task) {
    if (task.delta != cached_delta_) {
        // The chunked aggregation pipeline: works on mmap'd natbin sources
        // and is bit-identical to DeltaSweepEngine's pair-index path (both
        // emit sorted, deduplicated edge lists).
        series_.emplace(natscale::aggregate(*stream_, task.delta));
        cached_delta_ = task.delta;
    }
    const GraphSeries& series = *series_;

    OccupancyAccumulator acc(bins_);
    ReachabilityOptions options;
    options.backend = static_cast<ReachabilityBackend>(backend_);
    const ReachabilityBackend resolved =
        select_backend(series.num_nodes(), series.total_edges(), options);
    if (resolved == ReachabilityBackend::dense) {
        const NodeId n = series.num_nodes();
        dense_.scan_series_columns(series, std::min(task.col_begin, n),
                                   std::min(task.col_end, n), acc, options);
    } else if (task.shard_index == 0) {
        // No column-restricted sparse scan exists; the whole scan rides on
        // shard 0 and the delta's other shards contribute empty partials.
        sparse_.scan_series(series, acc, options);
    }
    return std::move(acc).finish();
}

}  // namespace natscale::dist
