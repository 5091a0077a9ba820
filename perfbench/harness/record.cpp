#include "record.hpp"

#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <thread>

#include "util/json.hpp"
#include "util/simd.hpp"

#ifndef NATBENCH_BUILD_TYPE
#define NATBENCH_BUILD_TYPE "unknown"
#endif

namespace natbench {

namespace {

void write_metric(natscale::JsonWriter& json, const std::string& name, double value,
                  const std::string& unit) {
    json.begin_object(name);
    json.field("value", value);
    json.field("unit", unit);
    json.end_object();
}

const char* compiler_name() {
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

}  // namespace

void note_build_provenance(Record& record, const std::string& source_id) {
    record.note("source_id", source_id);
    record.note("build_type", NATBENCH_BUILD_TYPE);
    record.note("compiler", compiler_name());
    record.note("simd_isa", natscale::to_string(natscale::active_simd_isa()));
    record.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
}

void Record::print() const {
    const std::span<const MetricSpec> catalog =
        trace ? std::span<const MetricSpec>(kPerLayer) : std::span<const MetricSpec>(kEndToEnd);
    for (const auto& [name, value] : metrics) {
        const bool known = std::any_of(catalog.begin(), catalog.end(),
                                       [&](const MetricSpec& spec) { return name == spec.name; });
        if (!known) throw std::logic_error("metric outside the catalog: " + name);
    }
    const auto write_catalog = [&](natscale::JsonWriter& json) {
        json.begin_object("metrics");
        for (const MetricSpec& spec : catalog) {
            const auto it = metrics.find(spec.name);
            write_metric(json, spec.name, it == metrics.end() ? 0.0 : it->second, spec.unit);
        }
        json.end_object();
    };

    natscale::JsonWriter full;
    full.begin_object();
    full.field("workload", workload);
    full.field("seed", seed);
    full.field("trace", trace);
    full.field("correct", correct());
    full.field("attempted", attempted);
    full.field("failed", failed);
    std::string failures;
    for (const std::string& failure : gate_failures) {
        failures += (failures.empty() ? "" : "; ") + failure;
    }
    full.field("gate_failures", failures);
    write_catalog(full);
    full.begin_object("details");
    for (const Detail& d : details) write_metric(full, d.name, d.value, d.unit);
    full.end_object();
    full.begin_object("provenance");
    for (const auto& [key, text] : text_notes) full.field(key, text);
    for (const auto& [key, number] : number_notes) full.field(key, number);
    full.end_object();
    full.end_object();
    std::printf("record %s\n", full.str().c_str());

    natscale::JsonWriter summary;
    summary.begin_object();
    summary.field("correct", correct());
    summary.field("attempted", attempted);
    summary.field("failed", failed);
    write_catalog(summary);
    summary.end_object();
    std::printf("%s\n", summary.str().c_str());
    std::fflush(stdout);
}

}  // namespace natbench
