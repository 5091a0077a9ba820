#include "stats/occupancy_accumulator.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace natscale {

OccupancyAccumulator::OccupancyAccumulator(std::size_t num_bins) : hist_(num_bins) {}

OccupancyAccumulator::OccupancyAccumulator(Histogram01 start) noexcept
    : hist_(std::move(start)) {}

void OccupancyAccumulator::fold(const Slots& slots, ExactSum& exact) {
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
        if (slots[slot] != 0) {
            exact.add_mantissa_sum(slots[slot], static_cast<unsigned>(1023 - slot));
        }
    }
}

Histogram01 OccupancyAccumulator::finish() && {
    std::size_t key = 0;
    for (std::uint64_t d = 1; key < short_counts_.size(); ++d) {
        for (std::uint64_t h = 1; h <= d; ++h, ++key) {
            if (short_counts_[key] != 0) {
                add_clamped(static_cast<double>(h) / static_cast<double>(d),
                            short_counts_[key]);
            }
        }
    }
    fold(sum_slots_, hist_.sum_);
    fold(sum_sq_slots_, hist_.sum_sq_);
    return std::move(hist_);
}

std::vector<OccupancyAccumulator> occupancy_partials(std::size_t count, std::size_t num_bins) {
    std::vector<OccupancyAccumulator> partials;
    partials.reserve(count);
    for (std::size_t i = 0; i < count; ++i) partials.emplace_back(num_bins);
    return partials;
}

Histogram01 finish_and_merge(std::span<OccupancyAccumulator> partials) {
    NATSCALE_EXPECTS(!partials.empty());
    Histogram01 hist = std::move(partials.front()).finish();
    for (OccupancyAccumulator& partial : partials.subspan(1)) {
        hist.merge(std::move(partial).finish());
    }
    return hist;
}

}  // namespace natscale
