// Order statistics of latency samples, as the benchmark reports them.
//
// Percentiles use the nearest-rank definition: the p-th percentile of n
// samples is the ceil(p/100 * n)-th smallest one, so it is always a value
// that was actually measured.  A percentile is only worth reporting when
// enough samples lie beyond it to make it more than the maximum in
// disguise; supported_tail_percentile() picks the highest one that has at
// least `min_beyond` of them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace natbench {

/// 1-based nearest rank of percentile `p` (in (0, 100]) among `n` samples.
inline std::size_t nearest_rank(double p, std::size_t n) {
    // The slack keeps e.g. 99.9 % of 10000 at rank 9990: 99.9 has no exact
    // binary form and the product lands a hair above the integer.
    const auto rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile; 0 for an empty sample.
inline double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    const std::size_t k = nearest_rank(p, samples.size()) - 1;
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return samples[k];
}

/// Median as the mean of the two middle samples (even n) or the middle one.
inline double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// The highest of p50, p90, p99 and p99.9 whose nearest rank leaves at least
/// `min_beyond` samples above it, or 0 when not even the median does.
inline double supported_tail_percentile(std::size_t n, std::size_t min_beyond = 10) {
    double best = 0.0;
    for (const double p : {50.0, 90.0, 99.0, 99.9}) {
        if (n > 0 && n - nearest_rank(p, n) >= min_beyond) best = p;
    }
    return best;
}

}  // namespace natbench
