// enron-daemon: an in-process natscaled Server on a Unix socket, driven by
// one closed-loop client that ingests the stream in time order in fixed
// batches and asks a sealed-only saturation query after each batch.
#include <algorithm>
#include <memory>
#include <thread>

#include "core/delta_grid.hpp"
#include "gate.hpp"
#include "gen/registry.hpp"
#include "layers.hpp"
#include "natscale/report_schema.hpp"
#include "natscale/session.hpp"
#include "obs/trace.hpp"
#include "sampling.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace natbench {

using namespace natscale;
using namespace natscale::service;

namespace {

/// Events per ingest frame.  With enron's 16k events a pass makes 55
/// sealed-only queries, so a timed run's passes make >= kMinQueries of
/// them and the query p90 has >= 10 samples beyond it.
constexpr std::size_t kBatchEvents = 300;
constexpr std::size_t kMinQueries = 100;

/// The daemon's engine settings of this workload.  A query sweeps the
/// session's grid on half the cores.  On one thread a pass takes ~7.5 s, so
/// few fit in a run, and its time follows the speed of whichever core it
/// lands on.  On every core, each ~45 ms query waits for the slowest one,
/// and on a shared VM the host's steal stalls it: the pass time then
/// tracks host load.  Half the cores leave the guest scheduler idle cores
/// to wake threads on; see README.md for the measured spreads.
constexpr std::size_t kServerWorkers = 2;
std::size_t engine_threads() { return std::max<std::size_t>(1, nproc() / 2); }

/// Server + IO thread; stopped and joined on destruction.
class Daemon {
public:
    explicit Daemon(const std::string& socket_path) {
        ServerOptions options;
        options.unix_path = socket_path;
        options.workers = kServerWorkers;
        options.engine_threads = engine_threads();
        server_ = std::make_unique<Server>(options);
        io_ = std::thread([server = server_.get()] { server->run(); });
    }
    ~Daemon() {
        server_->stop();
        io_.join();
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

private:
    std::unique_ptr<Server> server_;
    std::thread io_;
};

/// Numeric field `key` of a flat JSON document, or -1 when absent.
double json_number(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const auto at = json.find(needle);
    if (at == std::string::npos) return -1.0;
    return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/// Client-observed timings of one pass over the stream, and its answers.
struct Pass {
    std::string name;      // the stream's name on the daemon
    double total_s = 0.0;  // first ingest frame sent -> final answer received
    std::vector<double> ingest_s;
    std::vector<double> query_s;
    std::vector<double> strand_delay_ns;  // sampled from Client::stats()
    std::string final_answer;
    std::string curve;  // sealed-only curve of the closed stream, fetched untimed
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

RegisterStream registration(const LinkStream& stream, const std::string& name) {
    RegisterStream spec;
    spec.name = name;
    spec.num_nodes = stream.num_nodes();
    spec.directed = stream.directed();
    spec.period_end = stream.period_end();
    spec.grid_points = static_cast<std::uint32_t>(SweepConfig{}.coarse_points);
    return spec;
}

/// One pass on a fresh daemon (so no pass's memory carries into the
/// next): register, ingest every batch with a query after each, close,
/// final query; then, untimed, fetch the sealed-only curve for the gate.
/// With `stats_every` > 0 the strand queue-delay gauge is sampled through
/// Client::stats() after every stats_every-th query.
Pass run_pass(const std::string& socket_path, const LinkStream& stream, std::string name,
              std::size_t stats_every) {
    const Daemon daemon(socket_path);
    Client client = Client::connect_unix(socket_path);
    const std::uint64_t stream_id = client.register_stream(registration(stream, name)).stream_id;
    const std::span<const Event> events = stream.events();
    Pass pass;
    pass.name = std::move(name);
    Query query;
    query.stream_id = stream_id;
    query.kind = QueryKind::saturation;
    query.sealed_only = true;
    const auto timed_query = [&] {
        ++pass.attempted;
        try {
            const double start = now_s();
            pass.final_answer = client.query(query).json;
            pass.query_s.push_back(now_s() - start);
        } catch (const std::exception&) {
            ++pass.failed;
        }
    };

    const double begin = now_s();
    for (std::size_t sent = 0; sent < events.size(); sent += kBatchEvents) {
        const auto batch = events.subspan(sent, std::min(kBatchEvents, events.size() - sent));
        ++pass.attempted;
        try {
            const double start = now_s();
            client.ingest(stream_id, sent + 1, batch);
            pass.ingest_s.push_back(now_s() - start);
        } catch (const std::exception&) {
            ++pass.failed;
        }
        timed_query();
        if (stats_every > 0 && pass.query_s.size() % stats_every == 0) {
            pass.strand_delay_ns.push_back(
                json_number(client.stats(), "service.strand_queue_delay_ns"));
        }
    }
    ++pass.attempted;  // the close frame ends the ingest
    try {
        client.close_stream(stream_id);
    } catch (const std::exception&) {
        ++pass.failed;
    }
    timed_query();
    pass.total_s = now_s() - begin;

    query.kind = QueryKind::curve;
    try {
        pass.curve = client.query(query).json;
    } catch (const std::exception& e) {
        pass.curve = std::string("curve query threw: ") + e.what();
    }
    return pass;
}

/// What the daemon must answer for the closed stream: its curve over the
/// session grid, computed by a cold DeltaSweepEngine.
struct Expected {
    std::vector<Time> grid;
    OnlineReport report;
};

Expected cold_answer(const LinkStream& stream) {
    const SweepConfig config;
    Expected expected;
    expected.grid = geometric_delta_grid(1, stream.period_end(), config.coarse_points);
    DeltaSweepEngine engine(stream, sweep_options_of(config));
    OnlineReport& report = expected.report;
    report.points = engine.evaluate(expected.grid);
    double best = -1.0;
    for (std::size_t i = 0; i < report.points.size(); ++i) {
        const double score = score_of(report.points[i].scores, config.metric);
        if (score > best) {
            best = score;
            report.best_index = i;
        }
    }
    report.at_gamma = report.points[report.best_index];
    report.gamma = report.at_gamma.delta;
    report.events_covered = stream.num_events();
    return expected;
}

/// Gate on a closed stream: the sealed-only curve must be byte-equal to
/// the cold sweep's, and the last saturation answer must name its gamma.
void check_daemon(const Pass& pass, const Expected& expected, Record& record) {
    ReportContext context;
    context.stream = pass.name;
    context.events = expected.report.events_covered;
    context.watermark = kInfiniteTime;
    context.sealed_only = true;
    context.finished = true;
    const std::string want = curve_json(expected.report, SweepConfig{}.metric, context);
    if (const std::string diff =
            check_same_text("sealed-only curve of " + pass.name, pass.curve, want);
        !diff.empty()) {
        record.fail_gate(diff);
    }
    if (json_number(pass.final_answer, "gamma_ticks") !=
        static_cast<double>(expected.report.gamma)) {
        record.fail_gate("final saturation answer of " + pass.name + " names the wrong gamma");
    }
}

/// Replays the pass's batches and query points on an in-process
/// StreamSession built as the daemon builds one: the online layer without
/// the service around it.
void trace_online(const LinkStream& stream, const Expected& expected, Record& record) {
    SessionOptions options;
    options.config.coarse_points = SweepConfig{}.coarse_points;
    options.config.num_threads = engine_threads();
    options.ingest.period_end = stream.period_end();
    StreamSession session(stream.num_nodes(), stream.directed(), std::move(options));
    const std::span<const Event> events = stream.events();
    double append_s = 0.0;
    std::vector<double> report_ms;
    OnlineReport last;
    const auto timed_report = [&] {
        const double start = now_s();
        last = session.report(true);
        report_ms.push_back((now_s() - start) * 1e3);
    };
    for (std::size_t sent = 0; sent < events.size(); sent += kBatchEvents) {
        const double start = now_s();
        session.append(events.subspan(sent, std::min(kBatchEvents, events.size() - sent)));
        append_s += now_s() - start;
        timed_report();
    }
    session.close();
    timed_report();
    record.attempted += report_ms.size();

    record.metric("online.append_s", append_s);
    record.metric("online.report_p50_ms", percentile(report_ms, 50));
    record.metric("online.report_p90_ms", percentile(report_ms, 90));
    const bool same = last.points.size() == expected.report.points.size() &&
                      std::equal(last.points.begin(), last.points.end(),
                                 expected.report.points.begin(),
                                 [](const DeltaPoint& a, const DeltaPoint& b) {
                                     return identical(a, b);
                                 });
    if (!same) record.fail_gate("in-process session curve differs from the cold sweep");
}

}  // namespace

void run_daemon(const RunOptions& run, const std::string& spec, Record& record) {
    std::vector<gen::GeneratedStream> inputs;
    std::size_t queries = 0;  // per round over the inputs
    for (std::size_t i = 0; i < (run.trace ? 1 : run.instances); ++i) {
        inputs.push_back(gen::generate_stream(spec, instance_seed(run.seed, i)));
        queries += (inputs.back().stream.num_events() + kBatchEvents - 1) / kBatchEvents + 1;
    }
    if (!run.trace && queries < kMinQueries) {
        throw std::runtime_error("inputs too small for " + std::to_string(kMinQueries) +
                                 " queries per run");
    }
    const TempPath socket_path("natscaled.sock");

    // Set-up: bind a fresh Server and have it answer register_stream.
    std::vector<double> setups;
    const auto set_up = [&] {
        time_setups(
            [&] {
                const double start = now_s();
                auto daemon = std::make_unique<Daemon>(socket_path.str());
                Client client = Client::connect_unix(socket_path.str());
                client.register_stream(registration(inputs.front().stream, "setup"));
                const double seconds = now_s() - start;
                daemon.reset();
                return seconds;
            },
            setups);
    };

    std::vector<std::pair<std::size_t, Pass>> passes;  // (input, pass)
    const auto next_pass = [&](std::size_t i, std::size_t stats_every) {
        Pass pass = run_pass(socket_path.str(), inputs[i].stream,
                             "enron-" + std::to_string(passes.size()), stats_every);
        record.attempted += pass.attempted;
        record.failed += pass.failed;
        passes.emplace_back(i, std::move(pass));
    };

    std::vector<Expected> expected;
    const auto check_passes = [&] {
        for (const gen::GeneratedStream& input : inputs) {
            expected.push_back(cold_answer(input.stream));
        }
        for (const auto& [input, pass] : passes) check_daemon(pass, expected[input], record);
    };

    if (run.trace) {
        const LinkStream& stream = inputs.front().stream;
        const std::span<const Event> events = stream.events();
        std::vector<double> loads;
        time_setups(
            [&] {
                const double start = now_s();
                const LinkStream copy(std::vector<Event>(events.begin(), events.end()),
                                      stream.num_nodes(), stream.period_end(), stream.directed());
                return now_s() - start;
            },
            loads);
        next_pass(0, 10);
        const TempPath trace_file("trace.json");
        obs::TraceSink sink(trace_file.str(), std::size_t{1} << 14);
        obs::install_trace_sink(&sink);
        next_pass(0, 0);
        obs::install_trace_sink(nullptr);
        sink.close();
        check_passes();
        const Pass& measured = passes[0].second;
        record.metric("trace_overhead_s", passes[1].second.total_s - measured.total_s);
        record.metric("service.ingest_p50_us", percentile(measured.ingest_s, 50) * 1e6);
        record.metric("service.ingest_p90_us", percentile(measured.ingest_s, 90) * 1e6);
        record.metric("service.strand_queue_delay_ns", median(measured.strand_delay_ns));
        trace_online(stream, expected.front(), record);
        record.metric("service.query_overhead_ms", percentile(measured.query_s, 50) * 1e3 -
                                                       record.metrics["online.report_p50_ms"]);
        report_replay(record, replay_points(stream, SweepConfig{}, expected.front().report.points),
                      median(loads));
    } else {
        const auto peaks = for_each_unit(inputs.size(), run.seconds, [&](std::size_t i) {
            set_up();
            next_pass(i, 0);
        });
        check_passes();

        std::vector<std::vector<double>> per_input(inputs.size());
        std::vector<double> query_ms;
        std::vector<double> ingest_us;
        for (const auto& [input, pass] : passes) {
            per_input[input].push_back(pass.total_s);
            for (const double s : pass.query_s) query_ms.push_back(s * 1e3);
            for (const double s : pass.ingest_s) ingest_us.push_back(s * 1e6);
        }
        record.metric("time_to_gamma_s", ensemble_mean(per_input));
        record.metric("query_p50_ms", percentile(query_ms, 50));
        record.metric("query_p90_ms", percentile(query_ms, 90));
        record.metric("peak_rss_mib", ensemble_mean(peaks));
        record.metric("setup_s", median(setups));
        record.detail("passes", static_cast<double>(passes.size()), "count");
        record.detail("query_samples", static_cast<double>(query_ms.size()), "count");
        record.detail("query_supported_tail_percentile",
                      supported_tail_percentile(query_ms.size()), "percentile");
        record.detail("ingest_p50_us", percentile(ingest_us, 50), "us");
        record.detail("ingest_p90_us", percentile(ingest_us, 90), "us");
        record.detail("setup_samples", static_cast<double>(setups.size()), "count");
    }

    record.note("gamma", static_cast<double>(expected.front().report.gamma));
    record.note("server_workers", static_cast<double>(kServerWorkers));
    record.note("engine_threads", static_cast<double>(engine_threads()));
    record.note("batch_events", static_cast<double>(kBatchEvents));
    note_input(record, inputs.front().stream, SweepConfig{}, expected.front().grid);
}

}  // namespace natbench
