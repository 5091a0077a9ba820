// Executes one (delta, column shard) sweep task against a shared stream —
// the single definition of task semantics, used by BOTH the worker process
// (dist/worker) and the coordinator's in-process degradation path
// (dist/coordinator).  One definition means the fallback cannot drift from
// the fleet: wherever a task runs, the partial is bit-identical.
#pragma once

#include <optional>

#include "dist/protocol.hpp"
#include "linkstream/graph_series.hpp"
#include "linkstream/link_stream.hpp"
#include "stats/histogram01.hpp"
#include "temporal/reachability_backend.hpp"

namespace natscale::dist {

class TaskRunner {
public:
    /// `stream` must outlive the runner.  `backend` is the (possibly
    /// `automatic`) ReachabilityBackend enumerator from the sweep config.
    /// Precondition: backend names an enumerator (parse_worker_config
    /// rejects any other value).
    TaskRunner(const LinkStream& stream, std::size_t histogram_bins,
               std::uint32_t backend);

    /// Runs the task and returns its occupancy-histogram partial.
    ///
    /// The aggregated series is cached keyed on delta: the coordinator
    /// assigns a delta's shards consecutively, so a worker re-aggregates
    /// only when the delta changes.  The scan is
    /// ReachabilityEngine::scan_series_shard, the single-process fan-out's
    /// task entry point: backend resolution matches the single-process
    /// engine, and sparse-resolved deltas scan whole on shard 0 and return
    /// empty partials on the other shards (see dist/protocol.hpp).
    Histogram01 run(const DistTask& task);

private:
    const LinkStream* stream_;
    std::size_t bins_;
    ReachabilityOptions options_;
    Time cached_delta_ = -1;
    std::optional<GraphSeries> series_;
    ReachabilityEngine engine_;
};

}  // namespace natscale::dist
