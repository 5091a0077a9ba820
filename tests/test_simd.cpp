// Differential suite for the runtime-dispatched SIMD kernels (util/simd):
// every op of every ISA the host can execute must be byte-identical to the
// scalar reference at every width — including 0, 1, and every remainder
// around the 4-lane (AVX2) and 8-lane (AVX-512) boundaries — and the full
// pipeline (sweep points, saturation gamma, histogram moments) must be
// bitwise identical between scalar and vector dispatch over the whole
// generator corpus.  The width-0 / width-1 column-shard scans pin the
// masked-tail paths through the public scan API on every ISA.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "core/occupancy.hpp"
#include "core/saturation.hpp"
#include "gen/registry.hpp"
#include "linkstream/aggregation.hpp"
#include "stats/histogram01.hpp"
#include "stats/occupancy_accumulator.hpp"
#include "temporal/reachability.hpp"
#include "temporal/reachability_backend.hpp"
#include "testing/isa_guard.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace natscale {
namespace {

using IsaGuard = natscale::testing::IsaGuard;

/// Widths covering the empty case, scalar tails, and both vector register
/// boundaries (4 lanes for AVX2, 8 for AVX-512) with every remainder.
const std::vector<std::size_t> kWidths = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                                          15, 16, 17, 31, 32, 33, 63, 64, 65, 100,
                                          127, 128, 129, 1000};

/// Random packed (arrival_rank << 32 | hops) cells, including a sprinkling
/// of the unreachable sentinel; +1 never wraps on any of them, matching the
/// kernel's contract.
std::vector<std::uint64_t> random_packed(Rng& rng, std::size_t width) {
    constexpr std::uint64_t kUnreachable = 0xFFFFFFFF00000000ULL;
    std::vector<std::uint64_t> cells(width);
    for (auto& cell : cells) {
        if (rng.uniform_index(4) == 0) {
            cell = kUnreachable;
        } else {
            cell = (static_cast<std::uint64_t>(rng.uniform_index(1u << 20)) << 32) |
                   rng.uniform_index(1u << 16);
        }
    }
    return cells;
}

TEST(SimdDispatch, NamesRoundTripAndAutoIsNotAnIsa) {
    for (const SimdIsa isa :
         {SimdIsa::scalar, SimdIsa::avx2, SimdIsa::avx512, SimdIsa::neon}) {
        SimdIsa parsed = SimdIsa::scalar;
        ASSERT_TRUE(parse_simd_isa(to_string(isa), parsed)) << to_string(isa);
        EXPECT_EQ(parsed, isa);
    }
    SimdIsa out = SimdIsa::scalar;
    EXPECT_FALSE(parse_simd_isa("auto", out));  // resolved by detect, not parse
    EXPECT_FALSE(parse_simd_isa("", out));
    EXPECT_FALSE(parse_simd_isa("AVX2", out));
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndListedFirst) {
    const auto isas = supported_simd_isas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), SimdIsa::scalar);
    EXPECT_TRUE(simd_isa_supported(SimdIsa::scalar));
    // The detected ISA must itself be executable here.
    EXPECT_TRUE(simd_isa_supported(detect_simd_isa()));
}

TEST(SimdDispatch, SetSwitchesTheTableAndRejectsUnsupported) {
    IsaGuard guard;
    ASSERT_TRUE(set_simd_isa(SimdIsa::scalar));
    EXPECT_EQ(active_simd_isa(), SimdIsa::scalar);
    EXPECT_EQ(simd::ops().packed_min_add1, simd::kScalarOps.packed_min_add1);
    EXPECT_EQ(simd::ops().copy_bump_second_u32, simd::kScalarOps.copy_bump_second_u32);
    EXPECT_EQ(simd::ops().mismatch_mask, simd::kScalarOps.mismatch_mask);
    EXPECT_EQ(simd::ops().occupancy_bins, simd::kScalarOps.occupancy_bins);
    for (const SimdIsa isa :
         {SimdIsa::scalar, SimdIsa::avx2, SimdIsa::avx512, SimdIsa::neon}) {
        if (simd_isa_supported(isa)) {
            EXPECT_TRUE(set_simd_isa(isa));
            EXPECT_EQ(active_simd_isa(), isa);
        } else {
            const SimdIsa before = active_simd_isa();
            EXPECT_FALSE(set_simd_isa(isa));
            EXPECT_EQ(active_simd_isa(), before);  // a refused set changes nothing
        }
    }
}

TEST(SimdKernels, PackedMinAdd1MatchesScalarAtEveryWidth) {
    IsaGuard guard;
    Rng rng(11);
    for (const SimdIsa isa : supported_simd_isas()) {
        ASSERT_TRUE(set_simd_isa(isa));
        const simd::Ops& vec = simd::ops();
        for (const std::size_t width : kWidths) {
            for (int round = 0; round < 4; ++round) {
                const auto wrow = random_packed(rng, width);
                const auto base = random_packed(rng, width);
                auto expected = base;
                simd::kScalarOps.packed_min_add1(expected.data(), wrow.data(), width);
                auto actual = base;
                vec.packed_min_add1(actual.data(), wrow.data(), width);
                ASSERT_EQ(actual, expected)
                    << "isa=" << to_string(isa) << " width=" << width;
            }
        }
    }
}

TEST(SimdKernels, CopyBumpSecondU32MatchesScalarAtEveryCount) {
    IsaGuard guard;
    Rng rng(13);
    for (const SimdIsa isa : supported_simd_isas()) {
        ASSERT_TRUE(set_simd_isa(isa));
        const simd::Ops& vec = simd::ops();
        for (const std::size_t count : kWidths) {
            std::vector<std::byte> src(count * 16);
            for (auto& b : src) b = static_cast<std::byte>(rng.uniform_index(256));
            std::vector<std::byte> expected(count * 16);
            simd::kScalarOps.copy_bump_second_u32(expected.data(), src.data(), count);
            std::vector<std::byte> actual(count * 16);
            vec.copy_bump_second_u32(actual.data(), src.data(), count);
            // Not memcmp: at count 0 both data() pointers may be null.
            ASSERT_TRUE(actual == expected) << "isa=" << to_string(isa) << " count=" << count;
        }
    }
}

TEST(SimdKernels, MismatchMaskMatchesScalarForEveryCountAndPosition) {
    IsaGuard guard;
    // Cells past `count` always differ, so a kernel that reads or reports
    // beyond its count sets a bit above it.  Element offsets 0, 1, 3 and 7
    // move the rows off every vector-register alignment.
    constexpr std::size_t kMax = 64;
    constexpr std::size_t kSlack = 16;
    for (const SimdIsa isa : supported_simd_isas()) {
        ASSERT_TRUE(set_simd_isa(isa));
        const simd::Ops& vec = simd::ops();
        for (const std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                         std::size_t{7}}) {
            std::vector<std::uint64_t> a(offset + kMax + kSlack, 42);
            std::vector<std::uint64_t> b(offset + kMax + kSlack, 42);
            for (std::size_t count = 0; count <= kMax; ++count) {
                for (std::size_t i = offset + count; i < b.size(); ++i) b[i] = 9;
                const std::uint64_t* pa = a.data() + offset;
                const std::uint64_t* pb = b.data() + offset;
                ASSERT_EQ(vec.mismatch_mask(pa, pb, count), 0u)
                    << "isa=" << to_string(isa) << " count=" << count
                    << " offset=" << offset;
                for (std::size_t pos = 0; pos < count; ++pos) {
                    b[offset + pos] = 7;
                    ASSERT_EQ(vec.mismatch_mask(pa, pb, count), std::uint64_t{1} << pos)
                        << "isa=" << to_string(isa) << " count=" << count
                        << " pos=" << pos << " offset=" << offset;
                    b[offset + pos] = 42;
                }
                for (std::size_t i = offset + count; i < b.size(); ++i) b[i] = 42;
            }
        }
        // Randomized multi-mismatch rows against the scalar reference; the
        // differences include single-bit flips in either 32-bit lane.
        Rng rng(17);
        for (int round = 0; round < 200; ++round) {
            const std::size_t offset = rng.uniform_index(8);
            const std::size_t count = rng.uniform_index(kMax + 1);
            const auto a = random_packed(rng, offset + kMax);
            auto b = a;
            const std::size_t flips = rng.uniform_index(kMax);
            for (std::size_t k = 0; k < flips; ++k) {
                b[rng.uniform_index(b.size())] ^= std::uint64_t{1} << rng.uniform_index(64);
            }
            const std::uint64_t* pa = a.data() + offset;
            const std::uint64_t* pb = b.data() + offset;
            ASSERT_EQ(vec.mismatch_mask(pa, pb, count),
                      simd::kScalarOps.mismatch_mask(pa, pb, count))
                << "isa=" << to_string(isa) << " count=" << count << " offset=" << offset;
        }
    }
}

// --- occupancy_bins ----------------------------------------------------------

/// One occupancy_bins call's inputs and outputs.
struct OccupancyLanes {
    std::vector<std::int32_t> hops;
    std::vector<std::uint64_t> durations;
    std::vector<std::uint64_t> bin, x_bits, x_sq_bits;

    void run(const simd::Ops& ops, std::uint64_t bins) {
        const std::size_t count = hops.size();
        bin.assign(count, 0);
        x_bits.assign(count, 0);
        x_sq_bits.assign(count, 0);
        ops.occupancy_bins(hops.data(), durations.data(), count, bins, bin.data(),
                           x_bits.data(), x_sq_bits.data());
    }
};

/// `count` valid lanes (1 <= hops <= duration, hops < 2^31) mixing random
/// rates with the edge cases: hops == duration (x = 1), durations that are
/// multiples of `bins` with hops a multiple of the factor (x * B on a bin
/// edge), duration 257, and — when `wide` — durations of 2^52 and more up
/// to near 2^62, which send the whole block to the scalar reference.
OccupancyLanes random_lanes(Rng& rng, std::size_t count, std::uint64_t bins, bool wide) {
    constexpr std::uint64_t kMaxHops = 0x7FFFFFFF;
    OccupancyLanes lanes;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t d = 1 + rng.uniform_index(std::size_t{1} << (1 + rng.uniform_index(40)));
        std::uint64_t h = 1 + rng.uniform_index(std::min(d, kMaxHops));
        switch (rng.uniform_index(8)) {
            case 0:
                h = std::min(d, kMaxHops);
                d = h;
                break;
            case 1: {
                const std::uint64_t k = 1 + rng.uniform_index(1'000);
                d = k * bins;
                h = k * (1 + rng.uniform_index(bins));
                break;
            }
            case 2:
                d = 257;
                h = 1 + rng.uniform_index(257);
                break;
            case 3:
                if (wide) {
                    d = (std::uint64_t{1} << (52 + rng.uniform_index(11))) -
                        rng.uniform_index(3) + rng.uniform_index(1'000);
                    h = 1 + rng.uniform_index(kMaxHops);
                }
                break;
            default:
                break;
        }
        lanes.hops.push_back(static_cast<std::int32_t>(h));
        lanes.durations.push_back(d);
    }
    return lanes;
}

TEST(SimdKernels, OccupancyBinsMatchesScalarAtEveryCount) {
    // Every count from 0 to 2 kBlock + 1 covers every masked-tail width of
    // the 4- and 8-lane paths, several times over, at one and two blocks.
    IsaGuard guard;
    constexpr std::size_t kMaxCount = 2 * OccupancyAccumulator::kBlock + 1;
    Rng rng(19);
    for (const SimdIsa isa : supported_simd_isas()) {
        ASSERT_TRUE(set_simd_isa(isa));
        const simd::Ops& vec = simd::ops();
        for (const std::uint64_t bins : {std::uint64_t{1}, std::uint64_t{7},
                                         std::uint64_t{360}, std::uint64_t{3600}}) {
            for (const bool wide : {false, true}) {
                for (std::size_t count = 0; count <= kMaxCount; ++count) {
                    OccupancyLanes expected = random_lanes(rng, count, bins, wide);
                    OccupancyLanes actual = expected;
                    expected.run(simd::kScalarOps, bins);
                    actual.run(vec, bins);
                    SCOPED_TRACE(std::string("isa=") + to_string(isa) +
                                 " bins=" + std::to_string(bins) +
                                 " count=" + std::to_string(count) +
                                 " wide=" + std::to_string(wide));
                    ASSERT_EQ(actual.bin, expected.bin);
                    ASSERT_EQ(actual.x_bits, expected.x_bits);
                    ASSERT_EQ(actual.x_sq_bits, expected.x_sq_bits);
                }
            }
        }
    }
}

TEST(SimdKernels, OccupancyBinsScalarMatchesHistogramBinning) {
    // The scalar entry restates Histogram01's clamp_and_bin; pin the two
    // formulas together through Histogram01::add of each lane's rate.
    Rng rng(29);
    for (const std::uint64_t bins : {std::uint64_t{1}, std::uint64_t{7},
                                     std::uint64_t{360}, std::uint64_t{3600}}) {
        OccupancyLanes lanes = random_lanes(rng, 2'000, bins, true);
        lanes.run(simd::kScalarOps, bins);
        for (std::size_t i = 0; i < lanes.hops.size(); ++i) {
            const double x =
                static_cast<double>(lanes.hops[i]) / static_cast<double>(lanes.durations[i]);
            Histogram01 hist(bins);
            hist.add(x);
            const auto& counts = hist.counts();
            const auto bin = static_cast<std::uint64_t>(
                std::find(counts.begin(), counts.end(), 1u) - counts.begin());
            ASSERT_EQ(lanes.bin[i], bin) << "bins=" << bins << " lane=" << i;
            ExactSum sum;
            sum.add(std::bit_cast<double>(lanes.x_bits[i]));
            ExactSum sum_sq;
            sum_sq.add(std::bit_cast<double>(lanes.x_sq_bits[i]));
            ASSERT_TRUE(sum == hist.moment_sum()) << "bins=" << bins << " lane=" << i;
            ASSERT_TRUE(sum_sq == hist.moment_sum_sq()) << "bins=" << bins << " lane=" << i;
        }
    }
}

// --- scan-level parity -------------------------------------------------------

LinkStream random_stream(std::uint64_t seed, NodeId n, std::size_t num_events,
                         Time period) {
    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(num_events);
    for (std::size_t i = 0; i < num_events; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
        NodeId v = static_cast<NodeId>(rng.uniform_index(n));
        if (u == v) v = (v + 1) % n;
        events.push_back({u, v, rng.uniform_int(0, period - 1)});
    }
    return LinkStream(std::move(events), n, period, false);
}

TEST(SimdScan, WidthZeroAndWidthOneColumnShardsOnEveryIsa) {
    IsaGuard guard;
    const auto stream = random_stream(23, 40, 500, 5'000);
    const auto series = aggregate(stream, 200);

    // Scalar-dispatch full scans are the reference for both modes.
    ASSERT_TRUE(set_simd_isa(SimdIsa::scalar));
    std::vector<MinimalTrip> series_reference;
    std::vector<MinimalTrip> stream_reference;
    {
        TemporalReachability dense;
        dense.scan_series(series, [&](const MinimalTrip& t) {
            series_reference.push_back(t);
        });
        dense.scan_stream(stream, [&](const MinimalTrip& t) {
            stream_reference.push_back(t);
        });
    }

    for (const SimdIsa isa : supported_simd_isas()) {
        ASSERT_TRUE(set_simd_isa(isa));
        TemporalReachability dense;

        // Width-0 shards: legal, emit nothing, touch nothing.
        dense.scan_series_columns(series, 0, 0,
                                  [&](const MinimalTrip&) { FAIL() << "empty shard"; });
        dense.scan_series_columns(series, series.num_nodes(), series.num_nodes(),
                                  [&](const MinimalTrip&) { FAIL() << "empty shard"; });
        dense.scan_stream_columns(stream, 5, 5,
                                  [&](const MinimalTrip&) { FAIL() << "empty shard"; });

        // Width-1 shards: n single-column scans concatenate (in ascending
        // column order) to a permutation-free exact cover of the full scan.
        std::vector<MinimalTrip> series_cols;
        std::vector<MinimalTrip> stream_cols;
        for (NodeId c = 0; c < series.num_nodes(); ++c) {
            dense.scan_series_columns(series, c, c + 1, [&](const MinimalTrip& t) {
                EXPECT_EQ(t.v, c);
                series_cols.push_back(t);
            });
            dense.scan_stream_columns(stream, c, c + 1, [&](const MinimalTrip& t) {
                EXPECT_EQ(t.v, c);
                stream_cols.push_back(t);
            });
        }
        const auto sort_key = [](const MinimalTrip& t) {
            return std::tuple(t.v, t.dep, t.arr, t.u);
        };
        const auto by_key = [&](const MinimalTrip& x, const MinimalTrip& y) {
            return sort_key(x) < sort_key(y);
        };
        auto sorted_series_ref = series_reference;
        auto sorted_stream_ref = stream_reference;
        std::sort(sorted_series_ref.begin(), sorted_series_ref.end(), by_key);
        std::sort(sorted_stream_ref.begin(), sorted_stream_ref.end(), by_key);
        std::sort(series_cols.begin(), series_cols.end(), by_key);
        std::sort(stream_cols.begin(), stream_cols.end(), by_key);
        ASSERT_EQ(series_cols.size(), sorted_series_ref.size()) << to_string(isa);
        ASSERT_EQ(stream_cols.size(), sorted_stream_ref.size()) << to_string(isa);
        for (std::size_t i = 0; i < series_cols.size(); ++i) {
            ASSERT_EQ(series_cols[i], sorted_series_ref[i]) << to_string(isa);
        }
        for (std::size_t i = 0; i < stream_cols.size(); ++i) {
            ASSERT_EQ(stream_cols[i], sorted_stream_ref[i]) << to_string(isa);
        }
    }
}

// --- corpus-wide pipeline parity ---------------------------------------------

void expect_identical_point(const std::string& context, const DeltaPoint& a,
                            const DeltaPoint& b) {
    EXPECT_EQ(a.delta, b.delta) << context;
    EXPECT_EQ(a.num_trips, b.num_trips) << context;
    EXPECT_EQ(a.occupancy_mean, b.occupancy_mean) << context;
    EXPECT_EQ(a.scores.mk_proximity, b.scores.mk_proximity) << context;
    EXPECT_EQ(a.scores.std_deviation, b.scores.std_deviation) << context;
    EXPECT_EQ(a.scores.variation_coefficient, b.scores.variation_coefficient) << context;
    EXPECT_EQ(a.scores.shannon_entropy, b.scores.shannon_entropy) << context;
    EXPECT_EQ(a.scores.cre, b.scores.cre) << context;
}

void expect_identical_histogram(const std::string& context, const Histogram01& a,
                                const Histogram01& b) {
    EXPECT_EQ(a.counts(), b.counts()) << context;
    EXPECT_EQ(a.total(), b.total()) << context;
    std::uint64_t ma = 0, mb = 0, sa = 0, sb = 0;
    const double da = a.mean(), db = b.mean();
    const double va = a.population_stddev(), vb = b.population_stddev();
    std::memcpy(&ma, &da, sizeof da);
    std::memcpy(&mb, &db, sizeof db);
    std::memcpy(&sa, &va, sizeof va);
    std::memcpy(&sb, &vb, sizeof vb);
    EXPECT_EQ(ma, mb) << context;
    EXPECT_EQ(sa, sb) << context;
}

std::vector<Time> corpus_grid(const gen::GenSpec& spec, const LinkStream& stream) {
    if (spec.model == "int64_edge") {
        return geometric_delta_grid(stream.period_end() / 16, stream.period_end(), 6);
    }
    return geometric_delta_grid(1, stream.period_end(), 6);
}

TEST(SimdScan, CorpusSweepBitIdenticalAcrossIsasBackendsAndThreads) {
    IsaGuard guard;
    const std::vector<ReachabilityBackend> backends = {
        ReachabilityBackend::dense,
        ReachabilityBackend::sparse,
        ReachabilityBackend::automatic,
    };
    for (const auto& spec : gen::default_corpus()) {
        if (spec.model == "empty") continue;  // sweeps reject empty streams
        const auto stream = gen::generate_stream(spec).stream;
        const auto grid = corpus_grid(spec, stream);

        // Scalar dispatch, sequential scan: the reference every other
        // (ISA, backend, scan-thread) combination must reproduce bitwise.
        ASSERT_TRUE(set_simd_isa(SimdIsa::scalar));
        DeltaSweepOptions baseline_options;
        baseline_options.num_threads = 1;
        baseline_options.scan_threads = 1;
        DeltaSweepEngine baseline_engine(stream, baseline_options);
        std::vector<Histogram01> baseline_hists;
        const auto baseline = baseline_engine.evaluate(grid, &baseline_hists);

        for (const SimdIsa isa : supported_simd_isas()) {
            ASSERT_TRUE(set_simd_isa(isa));
            for (const ReachabilityBackend backend : backends) {
                for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                    const std::string context = gen::to_string(spec) +
                                                " isa=" + to_string(isa) +
                                                " backend=" +
                                                std::to_string(static_cast<int>(backend)) +
                                                " scan_threads=" + std::to_string(threads);
                    DeltaSweepOptions options;
                    options.backend = backend;
                    options.num_threads = 1;
                    options.scan_threads = threads;
                    DeltaSweepEngine engine(stream, options);
                    std::vector<Histogram01> hists;
                    const auto points = engine.evaluate(grid, &hists);
                    ASSERT_EQ(points.size(), baseline.size()) << context;
                    for (std::size_t i = 0; i < points.size(); ++i) {
                        expect_identical_point(context, points[i], baseline[i]);
                        expect_identical_histogram(context, hists[i], baseline_hists[i]);
                    }
                }
            }
        }
    }
}

TEST(SimdScan, SaturationGammaBitIdenticalAcrossIsas) {
    IsaGuard guard;
    const auto stream = random_stream(29, 80, 900, 25'000);
    SweepConfig options;
    options.coarse_points = 10;
    options.refine_rounds = 1;
    options.refine_points = 5;
    options.histogram_bins = 360;
    options.num_threads = 1;
    options.scan_threads = 1;

    ASSERT_TRUE(set_simd_isa(SimdIsa::scalar));
    const auto reference = find_saturation_scale(stream, options);

    for (const SimdIsa isa : supported_simd_isas()) {
        ASSERT_TRUE(set_simd_isa(isa));
        const auto result = find_saturation_scale(stream, options);
        const std::string context = std::string("isa=") + to_string(isa);
        EXPECT_EQ(result.gamma, reference.gamma) << context;
        ASSERT_EQ(result.curve.size(), reference.curve.size()) << context;
        for (std::size_t i = 0; i < result.curve.size(); ++i) {
            expect_identical_point(context, result.curve[i], reference.curve[i]);
        }
        expect_identical_point(context, result.at_gamma, reference.at_gamma);
        expect_identical_histogram(context, result.gamma_histogram,
                                   reference.gamma_histogram);
    }
}

}  // namespace
}  // namespace natscale
