// irvine-batch and facebook-natbin: find_saturation_scale on one stream.
#include <memory>
#include <map>
#include <optional>

#include "core/export.hpp"
#include "core/saturation.hpp"
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

/// Traced run: one untraced search, one search with the trace sink
/// installed and every grid round timed, then the single-threaded replay
/// of its curve.
void trace_batch(const LinkStream& stream, const SweepConfig& config, double load_s,
                 Record& record) {
    record.attempted += 2;
    const double untraced_start = now_s();
    const SaturationResult untraced = find_saturation_scale(stream, config);
    const double untraced_s = now_s() - untraced_start;

    const TempPath trace_file("trace.json");
    obs::TraceSink sink(trace_file.str(), std::size_t{1} << 14);
    RoundLog rounds;
    obs::install_trace_sink(&sink);
    const double traced_start = now_s();
    SaturationResult traced;
    {
        DeltaSweepEngine engine(stream, sweep_options_of(config));
        traced = find_saturation_scale_with(
            rounds.wrap([&engine](std::span<const Time> grid, std::vector<Histogram01>* h) {
                return engine.evaluate(grid, h);
            }),
            1, stream.period_end(), config);
    }
    const double traced_s = now_s() - traced_start;
    obs::install_trace_sink(nullptr);
    sink.close();

    if (const std::string diff = check_same_text("traced search", saturation_result_to_json(traced),
                                                 saturation_result_to_json(untraced));
        !diff.empty()) {
        record.fail_gate(diff);
    }

    const std::vector<double> spans_ns = delta_span_ns(sink);
    double busy_ns = 0.0;
    for (const double ns : spans_ns) busy_ns += ns;
    const double round_s = rounds.total_seconds();
    record.metric("core.round_s", round_s);
    record.metric("core.rounds", static_cast<double>(rounds.seconds.size()));
    record.metric("core.deltas_evaluated", static_cast<double>(rounds.total_deltas()));
    record.metric("core.pool_busy_ratio",
                  round_s > 0 ? busy_ns * 1e-9 / (round_s * static_cast<double>(config.num_threads))
                              : 0.0);
    record.metric("core.delta_p50_ms", median(spans_ns) * 1e-6);
    record.metric("core.delta_max_ms", percentile(spans_ns, 100) * 1e-6);
    record.metric("trace_overhead_s", traced_s - untraced_s);
    record.detail("untraced_time_to_gamma_s", untraced_s, "s");
    record.detail("traced_time_to_gamma_s", traced_s, "s");
    record.detail("sweep_delta_spans", static_cast<double>(spans_ns.size()), "count");
    if (spans_ns.size() != rounds.total_deltas()) {
        record.fail_gate("trace ring holds " + std::to_string(spans_ns.size()) +
                         " sweep.delta spans for " + std::to_string(rounds.total_deltas()) +
                         " evaluated periods");
    }

    const Replay replay = replay_points(stream, config, traced.curve);
    std::uint64_t curve_trips = 0;
    for (const DeltaPoint& point : traced.curve) curve_trips += point.num_trips;
    if (replay.trips != curve_trips) record.fail_gate("replayed trips differ from the curve's");
    report_replay(record, replay, load_s);

    std::vector<Time> deltas;
    for (const DeltaPoint& point : traced.curve) deltas.push_back(point.delta);
    note_input(record, stream, config, deltas);
}

/// One input of the ensemble and what its searches returned.
struct Input {
    explicit Input(std::size_t index) : natbin("input" + std::to_string(index) + ".natbin") {}

    std::optional<gen::GeneratedStream> generated;
    TempPath natbin;
    std::optional<LinkStream> stream;
    std::vector<double> seconds;
    std::vector<SaturationResult> results;
};

}  // namespace

void run_batch(const RunOptions& run, const std::string& spec, bool via_natbin,
               Record& record) {
    std::vector<std::unique_ptr<Input>> inputs;
    for (std::size_t i = 0; i < (run.trace ? 1 : run.instances); ++i) {
        auto& input = *inputs.emplace_back(std::make_unique<Input>(i));
        input.generated.emplace(gen::generate_stream(spec, instance_seed(run.seed, i)));
        if (via_natbin) save_natbin(input.natbin.str(), input.generated->stream);
    }

    // Set-up: build the LinkStream from the generated events, or open the
    // .natbin (mmap + header and record validation).
    std::vector<double> setups;
    const auto set_up = [&](Input& input) {
        const LinkStream& source = input.generated->stream;
        time_setups(
            [&] {
                input.stream.reset();
                const auto events = source.events();
                const double start = now_s();
                if (via_natbin) {
                    input.stream.emplace(open_natbin(input.natbin.str()).stream);
                } else {
                    input.stream.emplace(std::vector<Event>(events.begin(), events.end()),
                                         source.num_nodes(), source.period_end(),
                                         source.directed());
                }
                return now_s() - start;
            },
            setups);
    };
    const SweepConfig config = search_config();

    if (run.trace) {
        set_up(*inputs.front());
        trace_batch(*inputs.front()->stream, config, median(setups), record);
        return;
    }

    const auto peaks = for_each_unit(inputs.size(), run.seconds, [&](std::size_t i) {
        Input& input = *inputs[i];
        set_up(input);
        ++record.attempted;
        try {
            const double start = now_s();
            SaturationResult result = find_saturation_scale(*input.stream, config);
            input.seconds.push_back(now_s() - start);
            input.results.push_back(std::move(result));
        } catch (const std::exception& e) {
            record.fail_gate(std::string("search threw: ") + e.what());
        }
    });

    // Gate: one independent evaluate_delta per input and distinct gamma.
    std::vector<std::vector<double>> per_input;
    std::vector<double> query_ms;
    for (const auto& input : inputs) {
        std::map<Time, std::pair<DeltaPoint, Histogram01>> references;
        for (const SaturationResult& result : input->results) {
            auto it = references.find(result.gamma);
            if (it == references.end()) {
                Histogram01 histogram;
                const DeltaPoint point =
                    evaluate_delta(*input->stream, result.gamma, config, &histogram);
                it = references.emplace(result.gamma, std::make_pair(point, std::move(histogram)))
                         .first;
            }
            if (const std::string diff =
                    check_saturation(result, it->second.first, it->second.second);
                !diff.empty()) {
                record.fail_gate(diff);
            }
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
    const Input& first = *inputs.front();
    if (!first.results.empty()) {
        record.note("gamma", static_cast<double>(first.results.front().gamma));
        std::vector<Time> deltas;
        for (const DeltaPoint& point : first.results.front().curve) deltas.push_back(point.delta);
        note_input(record, *first.stream, config, deltas);
    }
}

}  // namespace natbench
