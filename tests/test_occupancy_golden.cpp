// Golden pins for occupancy accumulation: one checksum over the complete
// Histogram01 state (counts, total and both ExactSum limb arrays) of a few
// periods of a small gen stream, recorded once and asserted against every
// front door that fills an occupancy histogram — DeltaSweepEngine's outer
// and sharded paths, both branches of occupancy_histogram, the online
// engine's sync/refresh and the dist TaskRunner.  The constants are fixed
// references, so they catch a change that moves all paths together (which
// the pairwise parity suites cannot).
//
// Two grids, because OccupancyAccumulator counts trips of at most 256
// windows in a (hops, duration) table and adds longer ones sample by
// sample.  kGrid's periods have at most 250 windows, so it pins only the
// table; kLongGrid's shortest periods have 10000 and 1000 windows, so its
// histograms also hold trips that take the per-sample path.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/delta_sweep.hpp"
#include "core/occupancy.hpp"
#include "dist/task_runner.hpp"
#include "gen/registry.hpp"
#include "online/incremental_sweep.hpp"
#include "temporal/column_shards.hpp"
#include "testing/isa_guard.hpp"
#include "util/simd.hpp"

namespace natscale {
namespace {

constexpr const char* kSpec = "uniform:n=150,links=2,T=10000";
constexpr std::uint64_t kSeed = 5;
constexpr std::size_t kBins = 720;
const std::vector<Time> kGrid = {40, 400, 3000};
const std::vector<Time> kLongGrid = {1, 10, 40};

constexpr std::uint64_t kGolden = 0x81f4cbe277473127ull;
constexpr std::uint64_t kLongGolden = 0xc2e44694cdd6b7a1ull;

struct Pin {
    const std::vector<Time>& grid;
    std::uint64_t golden;
};
const Pin kPins[] = {{kGrid, kGolden}, {kLongGrid, kLongGolden}};

using IsaGuard = natscale::testing::IsaGuard;

/// FNV-1a over the little-endian bytes of every state word of `hists`.
std::uint64_t state_checksum(std::span<const Histogram01> hists) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    const auto fold = [&hash](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3ull;
        }
    };
    for (const Histogram01& hist : hists) {
        for (const std::uint64_t count : hist.counts()) fold(count);
        fold(hist.total());
        for (const std::uint64_t limb : hist.moment_sum().limbs()) fold(limb);
        for (const std::uint64_t limb : hist.moment_sum_sq().limbs()) fold(limb);
    }
    return hash;
}

class OccupancyGolden : public ::testing::Test {
protected:
    static void expect_golden(const Pin& pin, std::span<const Histogram01> hists,
                              const std::string& path) {
        ASSERT_EQ(hists.size(), pin.grid.size()) << path;
        for (const Histogram01& hist : hists) EXPECT_GT(hist.total(), 0u) << path;
        EXPECT_EQ(state_checksum(hists), pin.golden)
            << path << " on grid from " << pin.grid.front() << ": 0x" << std::hex
            << state_checksum(hists);
    }

    const LinkStream stream_ = gen::generate_stream(kSpec, kSeed).stream;
};

TEST_F(OccupancyGolden, DeltaSweepOuterPath) {
    IsaGuard guard;
    for (const SimdIsa isa : supported_simd_isas()) {
        ASSERT_TRUE(set_simd_isa(isa));
        for (const ReachabilityBackend backend :
             {ReachabilityBackend::dense, ReachabilityBackend::sparse}) {
            DeltaSweepOptions options;
            options.histogram_bins = kBins;
            options.num_threads = 2;
            options.backend = backend;
            DeltaSweepEngine engine(stream_, options);
            for (const Pin& pin : kPins) {
                std::vector<Histogram01> hists;
                engine.evaluate(pin.grid, &hists);
                expect_golden(pin, hists, std::string("evaluate isa=") + to_string(isa));
            }
        }
    }
}

TEST_F(OccupancyGolden, DeltaSweepShardedPath) {
    ASSERT_GT(column_shards(stream_.num_nodes()).size(), 1u);
    for (const ReachabilityBackend backend :
         {ReachabilityBackend::dense, ReachabilityBackend::sparse}) {
        DeltaSweepOptions options;
        options.histogram_bins = kBins;
        options.num_threads = 4;  // wider than the grid, so the scans shard
        options.scan_threads = 4;
        options.backend = backend;
        DeltaSweepEngine engine(stream_, options);
        for (const Pin& pin : kPins) {
            std::vector<Histogram01> hists;
            engine.evaluate(pin.grid, &hists);
            expect_golden(pin, hists,
                          backend == ReachabilityBackend::dense ? "evaluate split mode dense"
                                                                : "evaluate split mode sparse");
        }
    }
}

TEST_F(OccupancyGolden, OccupancyHistogramBothBranches) {
    for (const Pin& pin : kPins) {
        for (const std::size_t scan_threads : {std::size_t{1}, std::size_t{3}}) {
            std::vector<Histogram01> hists;
            for (const Time delta : pin.grid) {
                hists.push_back(occupancy_histogram(stream_, delta, kBins,
                                                    ReachabilityBackend::dense, scan_threads));
            }
            expect_golden(pin, hists,
                          scan_threads == 1 ? "occupancy_histogram sequential"
                                            : "occupancy_histogram sharded");
        }
    }
}

TEST_F(OccupancyGolden, OnlineSyncAndRefresh) {
    for (const Pin& pin : kPins) {
        OnlineSweepOptions options;
        options.grid = pin.grid;
        options.histogram_bins = kBins;
        options.num_threads = 2;
        OnlineSweepEngine engine(stream_.num_nodes(), stream_.directed(), options);
        const std::span<const Event> events = stream_.events();
        // Seal part of the stream first, so the sealed histograms (sync) and
        // the unsealed tail (refresh) both carry trips.
        engine.sync(events, stream_.period_end() / 2);
        std::vector<Histogram01> hists;
        engine.refresh(events, &hists);
        expect_golden(pin, hists, "online refresh");

        engine.sync(events, stream_.period_end());
        engine.refresh(events, &hists);
        expect_golden(pin, hists, "online fully sealed");
    }
}

TEST_F(OccupancyGolden, DistTaskRunner) {
    const std::vector<ColumnShard> shards = column_shards(stream_.num_nodes());
    for (const ReachabilityBackend backend :
         {ReachabilityBackend::dense, ReachabilityBackend::sparse}) {
        dist::TaskRunner runner(stream_, kBins, static_cast<std::uint32_t>(backend));
        for (const Pin& pin : kPins) {
            std::vector<Histogram01> hists;
            for (const Time delta : pin.grid) {
                Histogram01 merged(kBins);
                for (std::size_t s = 0; s < shards.size(); ++s) {
                    dist::DistTask task;
                    task.delta = delta;
                    task.col_begin = shards[s].begin;
                    task.col_end = shards[s].end;
                    task.shard_index = static_cast<std::uint32_t>(s);
                    task.shard_count = static_cast<std::uint32_t>(shards.size());
                    merged.merge(runner.run(task));
                }
                hists.push_back(std::move(merged));
            }
            expect_golden(pin, hists, "dist TaskRunner");
        }
    }
}

}  // namespace
}  // namespace natscale
