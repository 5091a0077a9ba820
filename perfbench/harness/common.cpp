// Helpers shared by the workloads (declared in workloads.hpp).
#include <cstdio>
#include <filesystem>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include "layers.hpp"
#include "sampling.hpp"
#include "util/proc_rss.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace natbench {

std::uint64_t instance_seed(std::uint64_t seed, std::size_t index) {
    return index == 0 ? seed : natscale::hash64(seed ^ (0x9e3779b97f4a7c15ULL * index));
}

namespace {

/// Hands free heap pages back to the kernel and restarts VmHWM at the
/// current RSS (Linux: "5" to clear_refs).  Best effort: without the
/// reset, the peak read after the unit covers the whole process so far.
void reset_peak_rss() {
    ::malloc_trim(0);
    if (std::FILE* refs = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", refs);
        std::fclose(refs);
    }
}

}  // namespace

std::vector<std::vector<double>> for_each_unit(std::size_t instances, double seconds,
                                               const std::function<void(std::size_t)>& unit) {
    std::vector<std::vector<double>> peaks(instances);
    const double begin = now_s();
    for (std::size_t i = 0; i < instances || now_s() - begin < seconds; ++i) {
        reset_peak_rss();
        unit(i % instances);
        peaks[i % instances].push_back(natscale::peak_rss_mib());
    }
    return peaks;
}

double ensemble_mean(const std::vector<std::vector<double>>& per_input) {
    double sum = 0.0;
    for (const auto& samples : per_input) sum += median(samples);
    return per_input.empty() ? 0.0 : sum / static_cast<double>(per_input.size());
}

std::size_t nproc() {
    const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
    return online > 0 ? static_cast<std::size_t>(online) : 1;
}

natscale::SweepConfig search_config() {
    natscale::SweepConfig config;
    config.num_threads = nproc();
    return config;
}

TempPath::TempPath(const std::string& name)
    : path_((std::filesystem::temp_directory_path() /
             ("natbench_" + std::to_string(::getpid()) + "_" + name))
                .string()) {}

TempPath::~TempPath() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
}

void time_setups(const std::function<double()>& setup, std::vector<double>& samples) {
    double spent = 0.0;
    for (std::size_t taken = 0; taken < 11 || (spent < 0.3 && taken < 201); ++taken) {
        samples.push_back(setup());
        spent += samples.back();
    }
}

double children_peak_rss_mib() {
    rusage usage{};
    ::getrusage(RUSAGE_CHILDREN, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

CpuTicks cpu_ticks() {
    CpuTicks ticks;
    std::FILE* stat = std::fopen("/proc/stat", "r");
    if (stat == nullptr) return ticks;
    // "cpu  user nice system idle iowait irq softirq steal ..."
    unsigned long long field[8] = {};
    if (std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &field[0], &field[1],
                    &field[2], &field[3], &field[4], &field[5], &field[6], &field[7]) == 8) {
        for (const unsigned long long f : field) ticks.total += f;
        ticks.steal = field[7];
    }
    std::fclose(stat);
    return ticks;
}

}  // namespace natbench
