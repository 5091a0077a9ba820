// natbench: runs one benchmark workload and prints its result record.
//
//   natbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//            [--source-id TEXT]
//
// See perfbench/README.md for the workloads and metrics; perfbench/run.py
// builds this binary and is the command BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "dist/worker.hpp"
#include "workloads.hpp"

namespace {

/// `instances`: inputs per timed run, chosen so that the run-to-run spread
/// that comes from the seed (replicas of one dataset differ in cost) stays
/// within a third of each metric's bound; see README.md.
struct Workload {
    const char* name;
    const char* spec;
    std::size_t instances;
    void (*run)(const natbench::RunOptions&, const std::string&, natbench::Record&);
};

const Workload kWorkloads[] = {
    {"irvine-batch", "replica:dataset=irvine", 1,
     [](const natbench::RunOptions& run, const std::string& spec, natbench::Record& record) {
         natbench::run_batch(run, spec, /*via_natbin=*/false, record);
     }},
    {"facebook-natbin", "replica:dataset=facebook", 4,
     [](const natbench::RunOptions& run, const std::string& spec, natbench::Record& record) {
         natbench::run_batch(run, spec, /*via_natbin=*/true, record);
     }},
    {"enron-daemon", "replica:dataset=enron", 2, natbench::run_daemon},
    {"manufacturing-dist", "replica:dataset=manufacturing", 2, natbench::run_dist},
};

[[noreturn]] void usage(const char* problem) {
    std::fprintf(stderr,
                 "natbench: %s\n"
                 "usage: natbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                [--source-id TEXT]\n"
                 "workloads:",
                 problem);
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t parse_count(const std::string& text, const char* flag) {
    std::size_t used = 0;
    unsigned long long value = 0;
    try {
        value = std::stoull(text, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-') {
        usage((std::string("bad value for ") + flag).c_str());
    }
    return value;
}

}  // namespace

int main(int argc, char** argv) {
    // Spawned dist workers re-enter here with `dist-worker --connect=...`.
    if (const auto worker_exit = natscale::dist::maybe_run_worker(argc, argv)) {
        return *worker_exit;
    }

    natbench::RunOptions run;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            run.workload = value;
        } else if (flag == "--seed") {
            run.seed = parse_count(value, "--seed");
        } else if (flag == "--seconds") {
            run.seconds = static_cast<double>(parse_count(value, "--seconds"));
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            run.trace = value == "1";
        } else if (flag == "--source-id") {
            run.source_id = value;
        } else {
            usage(("unknown option " + flag).c_str());
        }
    }
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads) {
        if (run.workload == w.name) workload = &w;
    }
    if (workload == nullptr) usage(("unknown workload '" + run.workload + "'").c_str());

    run.instances = workload->instances;
    natbench::Record record;
    record.workload = run.workload;
    record.seed = run.seed;
    record.trace = run.trace;
    try {
        const natbench::CpuTicks before = natbench::cpu_ticks();
        workload->run(run, workload->spec, record);
        const natbench::CpuTicks after = natbench::cpu_ticks();
        if (after.total > before.total) {
            record.detail("host_steal_share",
                          static_cast<double>(after.steal - before.steal) /
                              static_cast<double>(after.total - before.total),
                          "ratio");
        }
        record.note("gen_spec", workload->spec);
        record.note("instances", static_cast<double>(run.trace ? 1 : run.instances));
        natbench::note_build_provenance(record, run.source_id);
        record.print();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "natbench: %s failed: %s\n", run.workload.c_str(), e.what());
        return 1;
    }
    return 0;
}
