#include "gate.hpp"

#include <algorithm>

namespace natbench {

using natscale::DeltaPoint;
using natscale::Histogram01;

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

std::string check_saturation(const natscale::SaturationResult& result,
                             const DeltaPoint& reference_point,
                             const Histogram01& reference_histogram) {
    if (result.gamma != reference_point.delta) {
        return "gamma " + std::to_string(result.gamma) + " is not the checked period " +
               std::to_string(reference_point.delta);
    }
    if (result.at_gamma.delta != result.gamma) return "at_gamma is not the point at gamma";
    const auto on_curve = std::find_if(
        result.curve.begin(), result.curve.end(),
        [&](const DeltaPoint& p) { return p.delta == result.gamma; });
    if (on_curve == result.curve.end() || !identical(*on_curve, result.at_gamma)) {
        return "at_gamma differs from the curve point at gamma";
    }
    if (result.gamma != result.gamma_for(result.metric)) {
        return "gamma is not the curve's argmax";
    }
    if (!identical(result.at_gamma, reference_point)) {
        return "at_gamma differs from evaluate_delta at gamma";
    }
    if (!identical(result.gamma_histogram, reference_histogram)) {
        return "gamma_histogram differs from evaluate_delta at gamma";
    }
    return "";
}

std::string check_same_text(const std::string& what, const std::string& got,
                            const std::string& expected) {
    if (got == expected) return "";
    const auto split = std::mismatch(got.begin(), got.end(), expected.begin(), expected.end());
    const auto at = static_cast<std::size_t>(split.first - got.begin());
    return what + " differs from the reference at byte " + std::to_string(at) + " (" +
           std::to_string(got.size()) + " vs " + std::to_string(expected.size()) +
           " bytes)";
}

}  // namespace natbench
