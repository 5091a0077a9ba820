#include "dist/task_runner.hpp"

#include "linkstream/aggregation.hpp"
#include "stats/occupancy_accumulator.hpp"
#include "util/contracts.hpp"

namespace natscale::dist {

TaskRunner::TaskRunner(const LinkStream& stream, std::size_t histogram_bins,
                       std::uint32_t backend)
    : stream_(&stream), bins_(histogram_bins) {
    NATSCALE_EXPECTS(bins_ > 0);
    NATSCALE_EXPECTS(backend <= static_cast<std::uint32_t>(ReachabilityBackend::sparse));
    options_.backend = static_cast<ReachabilityBackend>(backend);
}

Histogram01 TaskRunner::run(const DistTask& task) {
    if (task.delta != cached_delta_) {
        // The chunked aggregation pipeline: works on mmap'd natbin sources
        // and is bit-identical to DeltaSweepEngine's pair-index path (both
        // emit sorted, deduplicated edge lists).
        series_.emplace(natscale::aggregate(*stream_, task.delta));
        cached_delta_ = task.delta;
    }
    OccupancyAccumulator acc(bins_);
    engine_.scan_series_shard(*series_, task.shard_index, {task.col_begin, task.col_end}, acc,
                              options_);
    return std::move(acc).finish();
}

}  // namespace natscale::dist
