// The result record of one benchmark run.
//
// A run prints two lines on stdout: first the full record (every metric,
// sample counts, per-layer details, provenance, gate verdicts) prefixed
// with "record ", then, as the very last line, the summary object the
// benchmark contract asks for:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace natbench {

/// One metric the summary line reports: name and unit, as in
/// BENCHMARK.json.
struct MetricSpec {
    const char* name;
    const char* unit;
};

/// The end-to-end metrics (untraced runs), in BENCHMARK.json order.
inline constexpr MetricSpec kEndToEnd[] = {
    {"time_to_gamma_s", "s"}, {"query_p50_ms", "ms"}, {"query_p90_ms", "ms"},
    {"peak_rss_mib", "MiB"},  {"setup_s", "s"},
};

/// The per-layer metrics (traced runs), in BENCHMARK.json order.  A layer a
/// workload does not run reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"linkstream.load_s", "s"},
    {"linkstream.aggregate_s", "s"},
    {"linkstream.snapshot_edges", "count"},
    {"core.engine_setup_s", "s"},
    {"core.round_s", "s"},
    {"core.rounds", "count"},
    {"core.deltas_evaluated", "count"},
    {"core.pool_busy_ratio", "ratio"},
    {"core.delta_p50_ms", "ms"},
    {"core.delta_max_ms", "ms"},
    {"temporal.scan_s", "s"},
    {"temporal.trips", "count"},
    {"temporal.ns_per_trip", "ns"},
    {"temporal.dense_deltas", "count"},
    {"temporal.sparse_deltas", "count"},
    {"stats.accumulate_s", "s"},
    {"stats.ns_per_trip", "ns"},
    {"stats.score_s", "s"},
    {"online.append_s", "s"},
    {"online.report_p50_ms", "ms"},
    {"online.report_p90_ms", "ms"},
    {"service.ingest_p50_us", "us"},
    {"service.ingest_p90_us", "us"},
    {"service.query_overhead_ms", "ms"},
    {"service.strand_queue_delay_ns", "ns"},
    {"dist.tasks_total", "count"},
    {"dist.task_retries", "count"},
    {"dist.tasks_inprocess", "count"},
    {"dist.worker_deaths", "count"},
    {"dist.round_s", "s"},
    {"dist.inprocess_s", "s"},
    {"dist.overhead_ratio", "ratio"},
    {"dist.worker_peak_rss_mib", "MiB"},
    {"replay.wall_s", "s"},
    {"replay.unaccounted_ratio", "ratio"},
    {"trace_overhead_s", "s"},
};

struct Detail {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Record {
    std::string workload;
    std::uint64_t seed = 0;
    bool trace = false;

    /// Values of the summary line's metrics (kEndToEnd, or kPerLayer when
    /// traced), by name.
    std::map<std::string, double> metrics;
    /// Supporting numbers that only go into the record line.
    std::vector<Detail> details;
    /// Provenance: text notes and numeric notes.
    std::vector<std::pair<std::string, std::string>> text_notes;
    std::vector<std::pair<std::string, double>> number_notes;

    /// Operations attempted and failed (a search, an ingest, a query or a
    /// dist task attempt; see README.md).
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// One line per failed output check (each also counts in `failed`).
    std::vector<std::string> gate_failures;

    void metric(const std::string& name, double value) { metrics[name] = value; }
    void detail(std::string name, double value, std::string unit) {
        details.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string key, std::string text) {
        text_notes.emplace_back(std::move(key), std::move(text));
    }
    void note(std::string key, double number) {
        number_notes.emplace_back(std::move(key), number);
    }
    void fail_gate(std::string what) {
        gate_failures.push_back(std::move(what));
        ++failed;
    }

    /// Every operation succeeded and passed its output check.
    bool correct() const noexcept { return failed == 0; }

    /// Writes the record line and the summary line to stdout.  Every
    /// catalog metric is printed (0 when unset); setting a metric outside
    /// the catalog is a harness bug and throws std::logic_error.
    void print() const;
};

/// Build and machine provenance every record carries: source id, build
/// type, compiler, active SIMD ISA, nproc.
void note_build_provenance(Record& record, const std::string& source_id);

}  // namespace natbench
