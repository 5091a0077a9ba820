// The four workloads.  Each one generates `instances` inputs from a gen
// spec and seeds derived from the run's seed (load generation, untimed).
// Replicas of one dataset differ in cost from seed to seed, so a timed run
// measures an ensemble: it cycles over its inputs, one unit of work (a
// search, a daemon pass) at a time, until `seconds` have passed and every
// input ran once.  A burst of set-ups precedes each unit (setup_s is the
// median of all of them), and each unit's peak RSS is read right after it.
// Output gates run after the timed loop, so neither their work nor their
// memory shows in the timed numbers.  A traced run (trace = true) instead
// fills the per-layer catalog from the first input alone.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "natscale/sweep_config.hpp"
#include "record.hpp"

namespace natbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10.0;
    bool trace = false;
    std::string source_id = "unknown";
    /// Inputs of the ensemble; input 0 is generated with `seed` itself.
    std::size_t instances = 1;
};

/// irvine-batch (in memory) and facebook-natbin (via_natbin: written to a
/// .natbin and opened with open_natbin, so mmap-backed).
void run_batch(const RunOptions& run, const std::string& spec, bool via_natbin,
               Record& record);
/// enron-daemon: in-process natscaled server, one closed-loop client.
void run_daemon(const RunOptions& run, const std::string& spec, Record& record);
/// manufacturing-dist: find_saturation_scale_dist over 2 worker processes.
void run_dist(const RunOptions& run, const std::string& spec, Record& record);

// --- shared helpers ---------------------------------------------------------

/// Online CPUs; the search's num_threads.
std::size_t nproc();

/// Gen seed of ensemble input `index`.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t index);

/// Calls unit(i) for i = 0, 1, ..., cycling over `instances`, until
/// `seconds` have passed and every input ran at least once.  Before each
/// unit, free heap memory goes back to the kernel and the peak-RSS count
/// restarts, so no unit's peak leaks into the next one's; returns each
/// unit's peak RSS in MiB, grouped by input.
std::vector<std::vector<double>> for_each_unit(std::size_t instances, double seconds,
                                               const std::function<void(std::size_t)>& unit);

/// Mean over inputs of each input's median: how an ensemble run reports a
/// per-unit measure.
double ensemble_mean(const std::vector<std::vector<double>>& per_input);

/// The search configuration of the batch and dist workloads: the default
/// SweepConfig with num_threads = nproc.
natscale::SweepConfig search_config();

/// A path under the temp directory (TMPDIR, which run.py points inside the
/// checkout), unique to this process, removed when the guard dies.
class TempPath {
public:
    explicit TempPath(const std::string& name);
    ~TempPath();
    TempPath(const TempPath&) = delete;
    TempPath& operator=(const TempPath&) = delete;
    const std::string& str() const noexcept { return path_; }

private:
    std::string path_;
};

/// Calls `setup` — which returns the seconds of the set-up it timed, so
/// that its teardown stays out of the sample — at least 11 times and until
/// 0.3 s have been spent (at most 201 times); appends the samples.
void time_setups(const std::function<double()>& setup, std::vector<double>& samples);

/// Peak RSS of the worker processes reaped so far (RUSAGE_CHILDREN), MiB.
double children_peak_rss_mib();

/// Machine-wide CPU time so far, and the part of it the hypervisor stole
/// from this VM, in ticks (/proc/stat; zeros where unavailable).  Stolen
/// time slows every timed number without any change in the program, so
/// each record states the share stolen during its run.
struct CpuTicks {
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();

}  // namespace natbench
