#include "stats/occupancy_accumulator.hpp"

#include <utility>

#include "util/contracts.hpp"
#include "util/simd.hpp"

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

void OccupancyAccumulator::drain() {
    std::array<std::uint64_t, kBlock> bins;
    std::array<std::uint64_t, kBlock> x_bits;
    std::array<std::uint64_t, kBlock> x_sq_bits;
    simd::ops().occupancy_bins(block_hops_.data(), block_durations_.data(), block_size_,
                               hist_.num_bins(), bins.data(), x_bits.data(),
                               x_sq_bits.data());
    for (std::size_t i = 0; i < block_size_; ++i) {
        ++hist_.counts_[bins[i]];
        add_moment(sum_slots_, hist_.sum_, x_bits[i], 1);
        add_moment(sum_sq_slots_, hist_.sum_sq_, x_sq_bits[i], 1);
    }
    hist_.total_ += block_size_;
    block_size_ = 0;
}

Histogram01 OccupancyAccumulator::finish() && {
    drain();
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

Histogram01 finish_and_merge(std::span<OccupancyAccumulator> partials) {
    NATSCALE_EXPECTS(!partials.empty());
    Histogram01 hist = std::move(partials.front()).finish();
    for (OccupancyAccumulator& partial : partials.subspan(1)) {
        hist.merge(std::move(partial).finish());
    }
    return hist;
}

}  // namespace natscale
