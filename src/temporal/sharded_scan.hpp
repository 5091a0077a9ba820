// The one driver for batch scan fan-out.  DeltaSweepEngine::evaluate,
// elongation_curve and occupancy_histogram(const GraphSeries&) all run the
// same job: scan a list of aggregated series, fill one sink partial per
// task, and merge each series' partials.  scan_fan_out() owns that job; a
// caller supplies only how item i is aggregated, its partial type, the
// per-trip sink bound to a partial, and the per-item finish (merge and
// scoring) step.
//
// The whole-vs-split choice is made here, once:
//
//   * whole-period mode (scan_threads == 1, or at least as many items as
//     pool workers): one task per item aggregates the series, scans it into
//     one partial, finishes it and drops the series, under a sweep.delta
//     span;
//   * split mode (a narrower list, which whole-period tasks cannot keep
//     busy): every series is aggregated first, dense-resolved scans split
//     into column-shard tasks (temporal/column_shards), sparse ones stay
//     whole, each task runs under a sweep.shard span, and each item's
//     partials are finished in ascending shard order.
//
// Both modes keep one reusable ReachabilityEngine per worker and scan
// through ReachabilityEngine::scan_series_shard, the task entry point the
// dist TaskRunner uses too.  The result is bit-identical in either mode and
// at every thread count: the shard partition is a function of n alone,
// partials merge in a fixed order, and the accumulators are split-invariant.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/column_shards.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace natscale {

namespace detail {

struct ShardedScanTask {
    std::size_t item = 0;     // index into the series list
    std::uint32_t shard = 0;  // index into the item's column shards
    ColumnShard columns;
    ReachabilityBackend backend = ReachabilityBackend::dense;
};

/// Task list plus CSR offsets: tasks of series i are
/// tasks[first_task[i] .. first_task[i + 1]), in ascending shard order —
/// the fixed order the partials merge in.  Every series gets at least one
/// task.
struct ShardedScanPlan {
    std::vector<ShardedScanTask> tasks;
    std::vector<std::size_t> first_task;
};

/// Resolves each series' backend exactly as ReachabilityEngine does (same
/// select_backend inputs) and shards the dense ones.
inline ShardedScanPlan plan_sharded_scans(std::span<const GraphSeries* const> series,
                                          const ReachabilityOptions& options) {
    ShardedScanPlan plan;
    plan.first_task.resize(series.size() + 1, 0);
    for (std::size_t i = 0; i < series.size(); ++i) {
        plan.first_task[i] = plan.tasks.size();
        const GraphSeries& s = *series[i];
        const ReachabilityBackend backend =
            select_backend(s.num_nodes(), s.total_edges(), options);
        if (backend == ReachabilityBackend::dense) {
            const std::vector<ColumnShard> shards = column_shards(s.num_nodes());
            for (std::size_t k = 0; k < shards.size(); ++k) {
                plan.tasks.push_back({i, static_cast<std::uint32_t>(k), shards[k], backend});
            }
            if (shards.empty()) plan.tasks.push_back({i, 0, {}, backend});  // empty scan
        } else {
            plan.tasks.push_back({i, 0, {0, s.num_nodes()}, backend});
        }
    }
    plan.first_task[series.size()] = plan.tasks.size();
    return plan;
}

inline const char* backend_name(ReachabilityBackend backend) {
    return backend == ReachabilityBackend::dense ? "dense" : "sparse";
}

}  // namespace detail

/// sink_of for partials that are per-trip sinks themselves.
inline constexpr auto partial_as_sink = [](auto& partial, const GraphSeries&) -> auto& {
    return partial;
};

/// Scans `items` series over `pool` and hands each item's partials to
/// `finish`.
///
///   series_of(i)            -> GraphSeries, or const GraphSeries& to a
///                              series the caller keeps alive
///   make_partial()          -> an empty Partial
///   sink_of(partial, s)     -> the per-trip sink filling `partial` from a
///                              scan of `s` (a Partial& or a small lambda)
///   finish(i, partials)     -> merges std::span<Partial> in order and
///                              scores item i; may move from the partials
///
/// Whole-period mode runs finish inside item i's task; split mode runs it
/// on the calling thread after every scan.  `scan_threads` is the caller's
/// intra-scan cap (0 = hardware concurrency); 1 keeps whole-period tasks.
/// The pool's width stays the overall concurrency cap.
template <typename SeriesOf, typename MakePartial, typename SinkOf, typename Finish>
void scan_fan_out(ThreadPool& pool, std::size_t items, std::size_t scan_threads,
                  const ReachabilityOptions& options, SeriesOf&& series_of,
                  MakePartial&& make_partial, SinkOf&& sink_of, Finish&& finish) {
    using Partial = std::invoke_result_t<MakePartial&>;
    std::vector<ReachabilityEngine> engines(pool.concurrency());
    const auto scan = [&](std::size_t worker, const GraphSeries& s, std::uint32_t shard,
                          ColumnShard columns, Partial& partial) {
        decltype(auto) sink = sink_of(partial, s);
        engines[worker].scan_series_shard(s, shard, columns, sink, options);
    };

    if (scan_threads == 1 || items >= pool.concurrency()) {
        static obs::LatencyHistogram& scan_ns = obs::histogram("sweep.delta_scan_ns");
        pool.parallel_for(items, [&](std::size_t worker, std::size_t item) {
            obs::Span span("sweep.delta");
            const std::uint64_t start = obs::TraceSink::now_ns();
            decltype(auto) s = series_of(item);
            if (span.active()) {
                span.attr("delta", static_cast<std::int64_t>(s.delta()));
                span.attr("simd", to_string(active_simd_isa()));
            }
            Partial partial = make_partial();
            scan(worker, s, 0, {0, s.num_nodes()}, partial);
            if (span.active()) {
                span.attr("backend", detail::backend_name(engines[worker].last_backend()));
            }
            finish(item, std::span<Partial>(&partial, 1));
            scan_ns.record(obs::TraceSink::now_ns() - start);
        });
        return;
    }

    // Split mode.  Aggregate every series first: they are all scanned at
    // once, and the list is narrower than the pool, so the footprint is
    // bounded.
    std::vector<const GraphSeries*> series(items);
    std::vector<std::optional<GraphSeries>> owned;
    if constexpr (std::is_reference_v<std::invoke_result_t<SeriesOf&, std::size_t>>) {
        for (std::size_t i = 0; i < items; ++i) series[i] = &series_of(i);
    } else {
        owned.resize(items);
        pool.parallel_for(items,
                          [&](std::size_t i) { series[i] = &owned[i].emplace(series_of(i)); });
    }

    const detail::ShardedScanPlan plan = detail::plan_sharded_scans(series, options);
    std::vector<Partial> partials;
    partials.reserve(plan.tasks.size());
    for (std::size_t t = 0; t < plan.tasks.size(); ++t) partials.push_back(make_partial());

    // Never fewer workers than the whole-period mode would use (one per
    // item), so the decomposition can only add concurrency.
    const std::size_t max_workers =
        std::max(ThreadPool::resolve_concurrency(scan_threads), items);
    static obs::Counter& shards_scanned = obs::counter("sweep.shards_scanned");
    pool.parallel_for(
        plan.tasks.size(),
        [&](std::size_t worker, std::size_t index) {
            const detail::ShardedScanTask& task = plan.tasks[index];
            obs::Span span("sweep.shard");
            if (span.active()) {
                span.attr("item", static_cast<std::uint64_t>(task.item));
                span.attr("col_begin", static_cast<std::uint64_t>(task.columns.begin));
                span.attr("col_end", static_cast<std::uint64_t>(task.columns.end));
                span.attr("backend", detail::backend_name(task.backend));
                span.attr("simd", to_string(active_simd_isa()));
            }
            shards_scanned.add();
            scan(worker, *series[task.item], task.shard, task.columns, partials[index]);
        },
        max_workers);

    for (std::size_t i = 0; i < items; ++i) {
        finish(i, std::span<Partial>(partials).subspan(
                      plan.first_task[i], plan.first_task[i + 1] - plan.first_task[i]));
    }
}

}  // namespace natscale
