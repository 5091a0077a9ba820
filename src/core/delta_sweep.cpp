#include "core/delta_sweep.hpp"

#include <algorithm>
#include <limits>

#include "linkstream/aggregation.hpp"
#include "obs/metrics.hpp"
#include "stats/occupancy_accumulator.hpp"
#include "temporal/sharded_scan.hpp"
#include "util/contracts.hpp"

namespace natscale {

DeltaPoint score_delta_point(Time delta, const Histogram01& histogram,
                             std::size_t shannon_slots) {
    DeltaPoint point;
    point.delta = delta;
    point.scores = compute_all_metrics(histogram, shannon_slots);
    point.num_trips = histogram.total();
    point.occupancy_mean = histogram.mean();
    return point;
}

DeltaSweepEngine::DeltaSweepEngine(const LinkStream& stream, DeltaSweepOptions options)
    : stream_(&stream), options_(options), use_pair_index_(stream.source().memory_resident()) {
    if (use_pair_index_) build_pair_index();
}

void DeltaSweepEngine::build_pair_index() {
    const auto events = stream_->events();
    NATSCALE_EXPECTS(events.size() <= std::numeric_limits<std::uint32_t>::max());
    pair_order_.resize(events.size());
    for (std::uint32_t i = 0; i < pair_order_.size(); ++i) pair_order_[i] = i;
    // Events are (t, u, v)-sorted; a stable sort by endpoints yields the
    // (u, v, t) order, so within a pair the window index is nondecreasing
    // for any Delta — the per-(pair, window) dedup in aggregate() is one
    // comparison.
    std::stable_sort(pair_order_.begin(), pair_order_.end(),
                     [&events](std::uint32_t a, std::uint32_t b) {
                         return events[a].u != events[b].u ? events[a].u < events[b].u
                                                          : events[a].v < events[b].v;
                     });
}

GraphSeries DeltaSweepEngine::aggregate(Time delta) const {
    NATSCALE_EXPECTS(delta >= 1);
    if (!use_pair_index_) {
        // mmap-backed source: the chunked window-sequential pipeline, which
        // releases consumed mmap pages behind its scan.  Bit-identical to
        // the pair-index path (both emit sorted, deduplicated edge lists).
        return natscale::aggregate(*stream_, delta);
    }
    const auto events = stream_->events();

    // Pass 1 (time order): non-empty windows are contiguous runs, which
    // yields the snapshot list already sorted by window index, plus each
    // event's snapshot slot for O(1) lookup in pass 2.
    std::vector<Snapshot> snapshots;
    std::vector<std::uint32_t> slot_of_event(events.size());
    std::size_t i = 0;
    while (i < events.size()) {
        const WindowIndex k = window_of(events[i].t, delta);
        const auto slot = static_cast<std::uint32_t>(snapshots.size());
        snapshots.push_back(Snapshot{k, {}});
        while (i < events.size() && window_of(events[i].t, delta) == k) {
            slot_of_event[i] = slot;
            ++i;
        }
    }

    // Pass 2 (pair order): append each (pair, window) occurrence once.
    // Pairs arrive in increasing (u, v), so every snapshot's edge list comes
    // out sorted and deduplicated with no per-window sort.
    bool have_prev = false;
    Event prev_event{};
    std::uint32_t prev_slot = 0;
    for (const std::uint32_t index : pair_order_) {
        const Event& e = events[index];
        const std::uint32_t slot = slot_of_event[index];
        if (have_prev && prev_event.u == e.u && prev_event.v == e.v && prev_slot == slot) {
            continue;
        }
        snapshots[slot].edges.emplace_back(e.u, e.v);
        have_prev = true;
        prev_event = e;
        prev_slot = slot;
    }

    return GraphSeries(stream_->num_nodes(), num_windows(stream_->period_end(), delta),
                       delta, stream_->directed(), std::move(snapshots));
}

ThreadPool& DeltaSweepEngine::pool() {
    if (pool_ == nullptr) {
        // num_threads is THE concurrency (and therefore memory) cap: one
        // dense engine is cloned per pool worker, so the pool is never
        // widened beyond it.  scan_threads only changes how the work is
        // decomposed — the shard tasks of the narrow-grid path share this
        // same pool.
        pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    }
    return *pool_;
}

std::vector<DeltaPoint> DeltaSweepEngine::evaluate(std::span<const Time> grid,
                                                   std::vector<Histogram01>* histograms_out) {
    std::vector<DeltaPoint> points(grid.size());
    if (histograms_out != nullptr) {
        histograms_out->assign(grid.size(), Histogram01(options_.histogram_bins));
    }
    if (grid.empty()) return points;

    ReachabilityOptions scan_options;
    scan_options.backend = options_.backend;
    static obs::Counter& deltas_evaluated = obs::counter("sweep.deltas_evaluated");
    scan_fan_out(
        pool(), grid.size(), options_.scan_threads, scan_options,
        [&](std::size_t index) { return aggregate(grid[index]); },
        [&] { return OccupancyAccumulator(options_.histogram_bins); },
        partial_as_sink,
        [&](std::size_t index, std::span<OccupancyAccumulator> partials) {
            Histogram01 hist = finish_and_merge(partials);
            deltas_evaluated.add();
            points[index] = score_delta_point(grid[index], hist, options_.shannon_slots);
            if (histograms_out != nullptr) (*histograms_out)[index] = std::move(hist);
        });
    return points;
}

}  // namespace natscale
