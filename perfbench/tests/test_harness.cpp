// Tests of the benchmark harness itself: the output gate must reject
// perturbed answers, and the percentile helper must only offer
// percentiles with at least ten samples beyond them.
#include <gtest/gtest.h>

#include "core/export.hpp"
#include "core/saturation.hpp"
#include "gate.hpp"
#include "gen/registry.hpp"
#include "sampling.hpp"

namespace {

using namespace natscale;
using natbench::check_same_text;
using natbench::check_saturation;

TEST(Sampling, TailPercentileHasTenSamplesBeyond) {
    EXPECT_EQ(natbench::supported_tail_percentile(0), 0.0);
    EXPECT_EQ(natbench::supported_tail_percentile(19), 0.0);
    EXPECT_EQ(natbench::supported_tail_percentile(20), 50.0);
    EXPECT_EQ(natbench::supported_tail_percentile(99), 50.0);
    EXPECT_EQ(natbench::supported_tail_percentile(100), 90.0);
    EXPECT_EQ(natbench::supported_tail_percentile(108), 90.0);
    EXPECT_EQ(natbench::supported_tail_percentile(999), 90.0);
    EXPECT_EQ(natbench::supported_tail_percentile(1000), 99.0);
    EXPECT_EQ(natbench::supported_tail_percentile(10000), 99.9);
}

TEST(Sampling, NearestRankPercentilesAreMeasuredValues) {
    const std::vector<double> samples = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    EXPECT_EQ(natbench::percentile(samples, 50), 5.0);
    EXPECT_EQ(natbench::percentile(samples, 90), 9.0);
    EXPECT_EQ(natbench::percentile(samples, 100), 10.0);
    EXPECT_EQ(natbench::percentile({}, 50), 0.0);
    EXPECT_EQ(natbench::median(samples), 5.5);
    EXPECT_EQ(natbench::median({3, 1, 2}), 2.0);
}

class SaturationGate : public ::testing::Test {
protected:
    void SetUp() override {
        result_ = find_saturation_scale(stream_, config_);
        reference_ = evaluate_delta(stream_, result_.gamma, config_, &reference_histogram_);
    }

    std::string check(const SaturationResult& result) const {
        return check_saturation(result, reference_, reference_histogram_);
    }

    LinkStream stream_ = gen::generate_stream("uniform:n=20,links=5,T=2000", 7).stream;
    SweepConfig config_;
    SaturationResult result_;
    DeltaPoint reference_;
    Histogram01 reference_histogram_;
};

TEST_F(SaturationGate, AcceptsTheLibrarysAnswer) { EXPECT_EQ(check(result_), ""); }

TEST_F(SaturationGate, RejectsOneFlippedHistogramBin) {
    const Histogram01& histogram = result_.gamma_histogram;
    std::vector<std::uint64_t> counts = histogram.counts();
    const auto bin = static_cast<std::size_t>(
        std::find_if(counts.begin(), counts.end(), [](std::uint64_t c) { return c > 0; }) -
        counts.begin());
    ASSERT_LT(bin, counts.size());
    --counts[bin];
    ++counts[(bin + 1) % counts.size()];
    SaturationResult perturbed = result_;
    perturbed.gamma_histogram = Histogram01::restore(
        counts, histogram.total(), histogram.moment_sum(), histogram.moment_sum_sq());
    EXPECT_NE(check(perturbed), "");
}

TEST_F(SaturationGate, RejectsAWrongGamma) {
    ASSERT_GE(result_.curve.size(), 2u);
    const DeltaPoint& other =
        result_.curve.front().delta != result_.gamma ? result_.curve.front() : result_.curve.back();

    SaturationResult renamed = result_;  // only the label moves
    renamed.gamma = other.delta;
    EXPECT_NE(check(renamed), "");

    // A self-consistent answer at a period that is not the argmax: its point
    // and histogram match the reference evaluated there, yet it is wrong.
    SaturationResult moved = result_;
    moved.gamma = other.delta;
    moved.at_gamma = other;
    Histogram01 other_histogram;
    const DeltaPoint other_reference =
        evaluate_delta(stream_, other.delta, config_, &other_histogram);
    moved.gamma_histogram = other_histogram;
    EXPECT_NE(check_saturation(moved, other_reference, other_histogram), "");
}

TEST(TextGate, RejectsAPerturbedReport) {
    const std::string report = R"({"gamma_ticks":120,"curve":[]})";
    EXPECT_EQ(check_same_text("report", report, report), "");
    std::string flipped = report;
    flipped[16] = '3';  // gamma_ticks 120 -> 130
    EXPECT_NE(check_same_text("report", flipped, report), "");
    EXPECT_NE(check_same_text("report", report + " ", report), "");
}

}  // namespace
