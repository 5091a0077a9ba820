// The distributed-sweep fault matrix (ISSUE acceptance): a >= 2-worker
// sweep must produce BIT-IDENTICAL results to the single-process engine
// under every injected fault — worker SIGKILL mid-task, stalled worker
// (lease expiry), corrupt and truncated partials, duplicate late replies —
// and degrade gracefully to in-process execution when no worker can spawn.
//
// This binary is its own worker fleet: the coordinator self-execs
// /proc/self/exe, which lands in maybe_run_worker() in main() below.
// Faults are armed through NATSCALE_FAULT before the engine spawns its
// workers (children inherit the environment); the RAII guard disarms them
// so no fault leaks into the next test.
#include "dist/coordinator.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "core/export.hpp"
#include "core/saturation.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "linkstream/aggregation.hpp"
#include "linkstream/binary_io.hpp"
#include "temporal/column_shards.hpp"
#include "temporal/reachability_backend.hpp"
#include "testing/temp_files.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace natscale {
namespace {

/// RAII NATSCALE_FAULT setter: armed for the engine under test, disarmed
/// before the next one (and before any in-process fallback could care).
class FaultEnv {
public:
    explicit FaultEnv(const char* spec) {
        if (spec != nullptr) ::setenv("NATSCALE_FAULT", spec, 1);
    }
    ~FaultEnv() { ::unsetenv("NATSCALE_FAULT"); }
};

bool identical(const DeltaPoint& a, const DeltaPoint& b) {
    return a.delta == b.delta && a.num_trips == b.num_trips &&
           a.occupancy_mean == b.occupancy_mean &&
           a.scores.mk_proximity == b.scores.mk_proximity &&
           a.scores.std_deviation == b.scores.std_deviation &&
           a.scores.variation_coefficient == b.scores.variation_coefficient &&
           a.scores.shannon_entropy == b.scores.shannon_entropy &&
           a.scores.cre == b.scores.cre;
}

bool identical(const Histogram01& a, const Histogram01& b) {
    return a.counts() == b.counts() && a.total() == b.total() &&
           a.moment_sum() == b.moment_sum() && a.moment_sum_sq() == b.moment_sum_sq();
}

/// The shared trace, the grid, and the single-process cold reference —
/// computed once, compared against by every fault scenario.
class DistSweep : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        path_ = new std::string(natscale::testing::temp_path("dist_sweep.natbin"));
        constexpr NodeId kNodes = 48;     // one column shard: tasks = grid points
        constexpr Time kPeriod = 4'000;
        NatbinWriter writer(*path_, kNodes, kPeriod, false);
        for (Time t = 0; t < kPeriod; ++t) {
            const std::uint64_t mixed = hash64(static_cast<std::uint64_t>(t));
            auto u = static_cast<NodeId>(mixed % kNodes);
            auto v = static_cast<NodeId>((mixed >> 16) % kNodes);
            if (u == v) v = (v + 1) % kNodes;
            if (u > v) std::swap(u, v);
            writer.append({u, v, t});
        }
        writer.finish();

        grid_ = new std::vector<Time>(geometric_delta_grid(1, kPeriod, 6));
        loaded_ = new LoadedStream(open_natbin(*path_));
        DeltaSweepEngine cold(loaded_->stream, {});
        cold_hists_ = new std::vector<Histogram01>();
        cold_points_ = new std::vector<DeltaPoint>(cold.evaluate(*grid_, cold_hists_));
    }

    static void TearDownTestSuite() {
        delete cold_points_;
        delete cold_hists_;
        delete loaded_;
        delete grid_;
        std::error_code ec;
        std::filesystem::remove(*path_, ec);
        delete path_;
    }

    /// Runs one distributed sweep under `fault` and asserts bit-identity
    /// with the cold reference; returns the stats for fault-specific checks.
    dist::DistSweepStats run_and_check(const char* fault, dist::DistConfig config) {
        FaultEnv env(fault);
        dist::DistSweepEngine engine(*path_, SweepConfig{}, std::move(config));
        std::vector<Histogram01> hists;
        const std::vector<DeltaPoint> points = engine.evaluate(*grid_, &hists);
        EXPECT_EQ(points.size(), cold_points_->size());
        for (std::size_t g = 0; g < cold_points_->size(); ++g) {
            EXPECT_TRUE(identical(points[g], (*cold_points_)[g])) << "grid point " << g;
            EXPECT_TRUE(identical(hists[g], (*cold_hists_)[g])) << "grid point " << g;
        }
        return engine.stats();
    }

    static std::string* path_;
    static std::vector<Time>* grid_;
    static LoadedStream* loaded_;
    static std::vector<DeltaPoint>* cold_points_;
    static std::vector<Histogram01>* cold_hists_;
};

std::string* DistSweep::path_ = nullptr;
std::vector<Time>* DistSweep::grid_ = nullptr;
LoadedStream* DistSweep::loaded_ = nullptr;
std::vector<DeltaPoint>* DistSweep::cold_points_ = nullptr;
std::vector<Histogram01>* DistSweep::cold_hists_ = nullptr;

TEST_F(DistSweep, CleanTwoWorkerRunIsBitIdentical) {
    const auto stats = run_and_check(nullptr, {});
    EXPECT_TRUE(stats.clean());
    EXPECT_EQ(stats.tasks_total, grid_->size());
    EXPECT_EQ(stats.workers_connected, 2u);
}

TEST_F(DistSweep, FleetPersistsAcrossEvaluateRounds) {
    FaultEnv env(nullptr);
    dist::DistSweepEngine engine(*path_, SweepConfig{}, {});
    for (int round = 0; round < 2; ++round) {
        std::vector<Histogram01> hists;
        const std::vector<DeltaPoint> points = engine.evaluate(*grid_, &hists);
        for (std::size_t g = 0; g < cold_points_->size(); ++g) {
            EXPECT_TRUE(identical(points[g], (*cold_points_)[g]));
            EXPECT_TRUE(identical(hists[g], (*cold_hists_)[g]));
        }
    }
    // Two rounds, one fleet: no respawns beyond the initial two workers.
    EXPECT_EQ(engine.stats().workers_spawned, 2u);
    EXPECT_TRUE(engine.stats().clean());
}

TEST_F(DistSweep, SurvivesWorkerSigkillMidTask) {
    // Both initial workers die right after computing their 2nd task (the
    // reply is never sent); replacements (spawn index >= 2) are exempt.
    const auto stats = run_and_check("crash_before_reply:nth=2:spawns=2", {});
    EXPECT_GE(stats.worker_deaths, 1u);
    EXPECT_GE(stats.task_retries, 1u);
    EXPECT_EQ(stats.corrupt_partials, 0u);
}

TEST_F(DistSweep, SurvivesHalfWrittenFrameThenDeath) {
    // The first worker sends half a task_result frame and SIGKILLs itself:
    // the coordinator sees a truncated frame followed by EOF.
    const auto stats = run_and_check("crash_mid_frame:nth=1:spawns=1", {});
    EXPECT_GE(stats.worker_deaths, 1u);
    EXPECT_GE(stats.task_retries, 1u);
}

TEST_F(DistSweep, StalledWorkerLosesItsLease) {
    // The first worker goes silent (no heartbeat, no reply) on its first
    // task; a short lease expires, the task requeues, the worker is shot.
    dist::DistConfig config;
    config.lease_timeout_ms = 300;
    const auto stats = run_and_check("stall:nth=1:spawns=1:ms=60000", config);
    EXPECT_GE(stats.stalled_leases, 1u);
    EXPECT_GE(stats.task_retries, 1u);
}

TEST_F(DistSweep, CorruptPartialIsDetectedAndRetried) {
    // Flipped bytes inside a well-framed reply: the checkpoint checksum
    // rejects it — a diagnosed retry, never a wrong (merged) answer.
    const auto stats = run_and_check("corrupt_partial:nth=1:spawns=1", {});
    EXPECT_GE(stats.corrupt_partials, 1u);
    EXPECT_GE(stats.task_retries, 1u);
}

TEST_F(DistSweep, DuplicateLateReplyIsDiscarded) {
    // The zombie scenario: the same (task_id, partial) arrives twice; the
    // idempotency key discards the second copy instead of double-merging.
    const auto stats = run_and_check("duplicate_reply:nth=1:spawns=2", {});
    EXPECT_GE(stats.duplicate_replies, 1u);
}

TEST_F(DistSweep, SlowWorkerIsNotPunished) {
    // A delay well inside the lease: heartbeats keep the lease alive, the
    // task completes on the slow worker — slow is not dead.
    const auto stats = run_and_check("delay:nth=1:ms=300:spawns=1", {});
    EXPECT_EQ(stats.stalled_leases, 0u);
    EXPECT_EQ(stats.worker_deaths, 0u);
}

TEST_F(DistSweep, UnspawnableWorkersDegradeToInProcess) {
    // No worker can ever exec: after the spawn budget the coordinator runs
    // every task itself, through the same TaskRunner the fleet would use.
    dist::DistConfig config;
    config.worker_cmd = {"/nonexistent/natscale-worker-binary"};
    const auto stats = run_and_check(nullptr, config);
    EXPECT_EQ(stats.tasks_inprocess, stats.tasks_total);
    EXPECT_GE(stats.spawn_failures, 1u);
    EXPECT_EQ(stats.workers_connected, 0u);
}

TEST_F(DistSweep, ZeroWorkersRunsEverythingInProcess) {
    dist::DistConfig config;
    config.workers = 0;
    const auto stats = run_and_check(nullptr, config);
    EXPECT_EQ(stats.tasks_inprocess, stats.tasks_total);
    EXPECT_EQ(stats.workers_spawned, 0u);
}

TEST_F(DistSweep, FullSearchMatchesSingleProcessJsonByteForByte) {
    // The end-to-end acceptance check at the report level: the refined
    // search over the distributed engine serializes to the very bytes of
    // the single-process run — under a kill fault, for good measure.
    SweepConfig options;
    options.coarse_points = 6;
    options.refine_rounds = 1;
    const SaturationResult single = find_saturation_scale(loaded_->stream, options);

    FaultEnv env("crash_before_reply:nth=3:spawns=2");
    dist::DistSweepStats stats;
    const SaturationResult distributed =
        dist::find_saturation_scale_dist(*path_, options, {}, &stats);
    EXPECT_EQ(saturation_result_to_json(distributed), saturation_result_to_json(single));
    EXPECT_EQ(distributed.gamma, single.gamma);
    EXPECT_TRUE(identical(distributed.gamma_histogram, single.gamma_histogram));
}

TEST(DistSweepPlan, SparseStreamPlansOneWholeDeltaTaskPerGridPoint) {
    // n >= kSparseMinNodes with at most 8n events resolves sparse at every
    // delta, where a column shard would be an empty round trip: the
    // coordinator plans one [0, n) task per delta, and the results stay
    // bit-identical to the single-process engine.
    constexpr NodeId kNodes = 2'500;
    constexpr Time kPeriod = 30'000;
    const std::string path = natscale::testing::temp_path("dist_sparse.natbin");
    {
        NatbinWriter writer(path, kNodes, kPeriod, false);
        for (Time t = 0; t < kPeriod; t += 5) {
            const std::uint64_t mixed = hash64(static_cast<std::uint64_t>(t) + 99);
            auto u = static_cast<NodeId>(mixed % kNodes);
            auto v = static_cast<NodeId>((mixed >> 20) % kNodes);
            if (u == v) v = (v + 1) % kNodes;
            if (u > v) std::swap(u, v);
            writer.append({u, v, t});
        }
        writer.finish();
    }
    const LoadedStream loaded = open_natbin(path);
    const LinkStream& stream = loaded.stream;
    ASSERT_EQ(select_backend(kNodes, stream.num_events(), {}), ReachabilityBackend::sparse);
    ASSERT_GT(column_shards(kNodes).size(), 1u);  // the old plan would shard it

    // The planner's bound: no delta aggregates more edges than events.
    const std::vector<Time> grid = geometric_delta_grid(1, kPeriod, 8);
    for (const Time delta : grid) {
        const GraphSeries series = aggregate(stream, delta);
        EXPECT_LE(series.total_edges(), stream.num_events()) << "delta=" << delta;
        EXPECT_EQ(select_backend(kNodes, series.total_edges(), {}),
                  ReachabilityBackend::sparse);
    }

    DeltaSweepEngine single(stream, {});
    std::vector<Histogram01> single_hists;
    const std::vector<DeltaPoint> single_points = single.evaluate(grid, &single_hists);
    {
        FaultEnv env(nullptr);
        dist::DistSweepEngine engine(path, SweepConfig{}, {});
        std::vector<Histogram01> hists;
        const std::vector<DeltaPoint> points = engine.evaluate(grid, &hists);
        EXPECT_EQ(engine.stats().tasks_total, grid.size());
        ASSERT_EQ(points.size(), grid.size());
        for (std::size_t g = 0; g < grid.size(); ++g) {
            EXPECT_TRUE(identical(points[g], single_points[g])) << "grid point " << g;
            EXPECT_TRUE(identical(hists[g], single_hists[g])) << "grid point " << g;
        }
    }

    // A forced dense backend is column-restricted again: sharded tasks.
    SweepConfig dense;
    dense.backend = ReachabilityBackend::dense;
    dist::DistConfig in_process;
    in_process.workers = 0;
    const std::vector<Time> two = {grid.front(), grid.back()};
    dist::DistSweepEngine engine(path, dense, in_process);
    const std::vector<DeltaPoint> points = engine.evaluate(two, nullptr);
    EXPECT_EQ(engine.stats().tasks_total, two.size() * column_shards(kNodes).size());
    EXPECT_TRUE(identical(points.front(), single_points.front()));
    EXPECT_TRUE(identical(points.back(), single_points.back()));

    std::error_code ec;
    std::filesystem::remove(path, ec);
}

TEST(DistProtocol, PartialWhoseCountsWrapIsABadFrame) {
    // Counts {2^64 - 1, 6} sum to 5 modulo 2^64.  With the checksum
    // recomputed, the decoder must reject the partial as a bad frame (which
    // the coordinator counts as corrupt and retries), not pass it on to fail
    // a contract during scoring.
    dist::TaskResult msg;
    msg.task_id = 3;
    msg.partial = Histogram01(2);
    msg.partial.add(0.25, 5);
    std::vector<std::byte> bytes = dist::encode_task_result(msg);
    ASSERT_NO_THROW(dist::parse_task_result(bytes));

    // Layout: task_id, bins, total, counts[2], moments, checksum.
    wire::put_u64(bytes.data() + 24, ~std::uint64_t{0});
    wire::put_u64(bytes.data() + 32, 6);
    wire::put_u64(bytes.data() + bytes.size() - 8,
                  wire::fnv1a64(bytes.data(), bytes.size() - 8));
    try {
        dist::parse_task_result(bytes);
        FAIL() << "wrapping counts accepted";
    } catch (const service::protocol_error& error) {
        EXPECT_EQ(error.code(), service::ErrorCode::bad_frame);
    }
}

TEST(DistProtocol, UnknownBackendIsABadFrame) {
    // The worker casts the backend field to ReachabilityBackend; a value
    // past the last enumerator must be refused at the frame, not run as
    // whichever branch it happens to fall into.
    dist::WorkerConfig msg;
    msg.natbin_path = "trace.natbin";
    msg.histogram_bins = 16;
    for (const ReachabilityBackend backend :
         {ReachabilityBackend::automatic, ReachabilityBackend::dense,
          ReachabilityBackend::sparse}) {
        msg.backend = static_cast<std::uint32_t>(backend);
        EXPECT_EQ(dist::parse_worker_config(dist::encode_worker_config(msg)).backend,
                  msg.backend);
    }
    for (const std::uint32_t backend : {3u, 0xFFFFFFFFu}) {
        msg.backend = backend;
        try {
            dist::parse_worker_config(dist::encode_worker_config(msg));
            FAIL() << "backend " << backend << " accepted";
        } catch (const service::protocol_error& error) {
            EXPECT_EQ(error.code(), service::ErrorCode::bad_frame);
        }
    }
}

TEST_F(DistSweep, StatsSurviveMidSearchFailure) {
    // When the search dies after the engine exists (here: a contract
    // violation inside find_saturation_scale_with), the accounting gathered
    // so far must still reach the caller — it is the diagnostic for why the
    // run failed.  find_time_scale prints the dist summary from exactly
    // this path.
    SweepConfig options;
    options.coarse_points = 1;  // violates the >= 2 precondition mid-search
    dist::DistSweepStats stats;
    stats.tasks_total = 777;  // sentinel: must be overwritten, not left stale
    EXPECT_THROW(dist::find_saturation_scale_dist(*path_, options, {}, &stats),
                 contract_error);
    EXPECT_EQ(stats.workers_requested, 2u);  // DistConfig default, set pre-throw
    EXPECT_EQ(stats.tasks_total, 0u);        // no grid round ever started
}

}  // namespace
}  // namespace natscale

int main(int argc, char** argv) {
    // Spawned workers re-enter this binary as `test_dist_sweep dist-worker
    // --connect=<socket>`: hand the process over before gtest sees argv.
    if (const auto worker_exit = natscale::dist::maybe_run_worker(argc, argv)) {
        return *worker_exit;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
