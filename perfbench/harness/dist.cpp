// manufacturing-dist: find_saturation_scale_dist over a fleet of worker
// processes sharing one .natbin.  The benchmark binary is its own worker
// (main() calls dist::maybe_run_worker first).
#include <memory>
#include <optional>

#include "core/export.hpp"
#include "dist/coordinator.hpp"
#include "gate.hpp"
#include "gen/registry.hpp"
#include "layers.hpp"
#include "linkstream/binary_io.hpp"
#include "obs/trace.hpp"
#include "sampling.hpp"
#include "workloads.hpp"

namespace natbench {

using namespace natscale;

namespace {

constexpr std::size_t kWorkers = 2;

dist::DistConfig fleet() {
    dist::DistConfig config;
    config.workers = kWorkers;
    return config;
}

/// What one distributed search must equal: the single-process report.
struct Reference {
    std::string json;
    Histogram01 histogram;
};

void check_dist(const SaturationResult& result, const dist::DistSweepStats& stats,
                const Reference& reference, Record& record) {
    if (const std::string diff = check_same_text("dist report", saturation_result_to_json(result),
                                                 reference.json);
        !diff.empty()) {
        record.fail_gate(diff);
    }
    if (!identical(result.gamma_histogram, reference.histogram)) {
        record.fail_gate("dist gamma histogram differs from the single-process one");
    }
    if (!stats.clean()) record.fail_gate("dist_summary is not clean");
}

/// Counts a search's task attempts: a retried or in-process task failed.
void count_tasks(const dist::DistSweepStats& stats, Record& record) {
    record.attempted += stats.tasks_total + stats.task_retries;
    record.failed += stats.task_retries + stats.tasks_inprocess;
}

void set_dist_metrics(const dist::DistSweepStats& stats, Record& record) {
    record.metric("dist.tasks_total", static_cast<double>(stats.tasks_total));
    record.metric("dist.task_retries", static_cast<double>(stats.task_retries));
    record.metric("dist.tasks_inprocess", static_cast<double>(stats.tasks_inprocess));
    record.metric("dist.worker_deaths", static_cast<double>(stats.worker_deaths));
}

/// One input of the ensemble and what its searches returned.
struct Input {
    explicit Input(std::size_t index) : natbin("input" + std::to_string(index) + ".natbin") {}

    TempPath natbin;
    std::optional<LoadedStream> loaded;
    std::vector<double> seconds;
    std::vector<std::pair<SaturationResult, dist::DistSweepStats>> results;
};

}  // namespace

void run_dist(const RunOptions& run, const std::string& spec, Record& record) {
    std::vector<std::unique_ptr<Input>> inputs;
    for (std::size_t i = 0; i < (run.trace ? 1 : run.instances); ++i) {
        auto& input = *inputs.emplace_back(std::make_unique<Input>(i));
        save_natbin(input.natbin.str(),
                    gen::generate_stream(spec, instance_seed(run.seed, i)).stream);
    }

    // Set-up: open the shared .natbin (the coordinator opens its own copy
    // inside the search, as each worker does).
    std::vector<double> setups;
    const auto set_up = [&](Input& input) {
        time_setups(
            [&] {
                input.loaded.reset();
                const double start = now_s();
                input.loaded.emplace(open_natbin(input.natbin.str()));
                return now_s() - start;
            },
            setups);
    };
    const SweepConfig config = search_config();
    const auto reference = [&](const LinkStream& stream) {
        SaturationResult single = find_saturation_scale(stream, config);
        return Reference{saturation_result_to_json(single), std::move(single.gamma_histogram)};
    };

    if (run.trace) {
        Input& input = *inputs.front();
        set_up(input);
        const LinkStream& stream = input.loaded->stream;
        const std::string& natbin = input.natbin.str();
        record.metric("linkstream.load_s", median(setups));
        record.attempted += 2;
        const double untraced_start = now_s();
        dist::find_saturation_scale_dist(natbin, config, fleet());
        const double untraced_s = now_s() - untraced_start;

        const TempPath trace_file("trace.json");
        obs::TraceSink sink(trace_file.str(), std::size_t{1} << 14);
        RoundLog rounds;
        SaturationResult result;
        dist::DistSweepStats stats;
        obs::install_trace_sink(&sink);
        const double traced_start = now_s();
        {
            dist::DistSweepEngine engine(natbin, config, fleet());
            result = find_saturation_scale_with(
                rounds.wrap([&engine](std::span<const Time> grid, std::vector<Histogram01>* h) {
                    return engine.evaluate(grid, h);
                }),
                1, stream.period_end(), config);
            stats = engine.stats();
        }
        const double traced_s = now_s() - traced_start;
        obs::install_trace_sink(nullptr);
        sink.close();
        count_tasks(stats, record);
        set_dist_metrics(stats, record);
        record.metric("trace_overhead_s", traced_s - untraced_s);
        record.metric("dist.worker_peak_rss_mib", children_peak_rss_mib());

        // The same rounds through the in-process engine at the fleet's width.
        DeltaSweepOptions local_options = sweep_options_of(config);
        local_options.num_threads = kWorkers;
        DeltaSweepEngine local(stream, local_options);
        double inprocess_s = 0.0;
        for (const auto& grid : rounds.grids) {
            const double start = now_s();
            local.evaluate(grid);
            inprocess_s += now_s() - start;
        }
        record.metric("dist.round_s", rounds.total_seconds());
        record.metric("dist.inprocess_s", inprocess_s);
        record.metric("dist.overhead_ratio",
                      inprocess_s > 0 ? rounds.total_seconds() / inprocess_s : 0.0);
        record.detail("rounds", static_cast<double>(rounds.seconds.size()), "count");

        check_dist(result, stats, reference(stream), record);
        report_replay(record, replay_points(stream, config, result.curve), median(setups));
        std::vector<Time> deltas;
        for (const DeltaPoint& point : result.curve) deltas.push_back(point.delta);
        note_input(record, stream, config, deltas);
        record.note("workers", static_cast<double>(kWorkers));
        return;
    }

    const auto peaks = for_each_unit(inputs.size(), run.seconds, [&](std::size_t i) {
        Input& input = *inputs[i];
        set_up(input);
        ++record.attempted;
        try {
            dist::DistSweepStats stats;
            const double start = now_s();
            SaturationResult result =
                dist::find_saturation_scale_dist(input.natbin.str(), config, fleet(), &stats);
            input.seconds.push_back(now_s() - start);
            count_tasks(stats, record);
            input.results.emplace_back(std::move(result), stats);
        } catch (const std::exception& e) {
            record.fail_gate(std::string("dist search threw: ") + e.what());
        }
    });
    const double worker_peak_mib = children_peak_rss_mib();

    std::vector<std::vector<double>> per_input;
    std::vector<double> query_ms;
    for (const auto& input : inputs) {
        const Reference single = reference(input->loaded->stream);
        for (const auto& [result, stats] : input->results) {
            check_dist(result, stats, single, record);
        }
        per_input.push_back(input->seconds);
        for (const double s : input->seconds) query_ms.push_back(s * 1e3);
    }

    record.metric("time_to_gamma_s", ensemble_mean(per_input));
    record.metric("query_p50_ms", percentile(query_ms, 50));
    record.metric("query_p90_ms", percentile(query_ms, 90));
    record.metric("peak_rss_mib", ensemble_mean(peaks));
    record.metric("setup_s", median(setups));
    record.detail("searches", static_cast<double>(query_ms.size()), "count");
    record.detail("setup_samples", static_cast<double>(setups.size()), "count");
    record.detail("worker_peak_rss_mib", worker_peak_mib, "MiB");
    const Input& first = *inputs.front();
    if (!first.results.empty()) {
        const auto& [result, stats] = first.results.front();
        record.detail("tasks_total", static_cast<double>(stats.tasks_total), "count");
        record.note("gamma", static_cast<double>(result.gamma));
        std::vector<Time> deltas;
        for (const DeltaPoint& point : result.curve) deltas.push_back(point.delta);
        note_input(record, first.loaded->stream, config, deltas);
    }
    record.note("workers", static_cast<double>(kWorkers));
}

}  // namespace natbench
