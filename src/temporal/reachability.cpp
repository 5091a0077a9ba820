#include "temporal/reachability.hpp"

#include <algorithm>

namespace natscale {

void TemporalReachability::prepare(NodeId n, NodeId col_begin, NodeId col_end) {
    NATSCALE_EXPECTS(col_begin <= col_end && col_end <= n);
    n_ = n;
    col_begin_ = col_begin;
    col_end_ = col_end;
    const std::size_t cells =
        static_cast<std::size_t>(n) * (col_end - col_begin);
    state_.assign(cells, kUnreachablePacked);
    if (scratch_cells_ < cells) {
        scratch_ = std::make_unique_for_overwrite<PackedState[]>(cells);
        scratch_cells_ = cells;
    }
    if (slot_.size() < n) slot_.assign(n, -1);
    std::fill(slot_.begin(), slot_.end(), -1);
    active_.clear();
}

namespace detail {

void build_instant_arcs(std::vector<Edge>& arcs, std::span<const Edge> edges, bool directed) {
    arcs.clear();
    arcs.reserve(directed ? edges.size() : 2 * edges.size());
    for (const auto& [u, v] : edges) {
        arcs.emplace_back(u, v);
        if (!directed) arcs.emplace_back(v, u);
    }
    std::sort(arcs.begin(), arcs.end());
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
}

}  // namespace detail

Time TemporalReachability::arrival(NodeId u, NodeId v) const {
    NATSCALE_EXPECTS(u < n_ && v >= col_begin_ && v < col_end_);
    const std::size_t width = col_end_ - col_begin_;
    const PackedState cell = state_[static_cast<std::size_t>(u) * width + (v - col_begin_)];
    const auto rank = static_cast<std::uint32_t>(cell >> 32);
    return rank == kUnreachableRank ? kInfiniteTime : labels_[rank];
}

Hops TemporalReachability::hop_count(NodeId u, NodeId v) const {
    NATSCALE_EXPECTS(u < n_ && v >= col_begin_ && v < col_end_);
    const std::size_t width = col_end_ - col_begin_;
    const PackedState cell = state_[static_cast<std::size_t>(u) * width + (v - col_begin_)];
    const auto rank = static_cast<std::uint32_t>(cell >> 32);
    return rank == kUnreachableRank ? kInfiniteHops
                                    : static_cast<Hops>(static_cast<std::uint32_t>(cell));
}

void TemporalReachability::decode_tables() {
    NATSCALE_EXPECTS(col_begin_ == 0 && col_end_ == n_);
    const std::size_t cells = state_.size();
    decode_arr_.resize(cells);
    decode_hops_.resize(cells);
    for (std::size_t i = 0; i < cells; ++i) {
        const PackedState cell = state_[i];
        const auto rank = static_cast<std::uint32_t>(cell >> 32);
        if (rank == kUnreachableRank) {
            decode_arr_[i] = kInfiniteTime;
            decode_hops_[i] = kInfiniteHops;
        } else {
            decode_arr_[i] = labels_[rank];
            decode_hops_[i] = static_cast<Hops>(static_cast<std::uint32_t>(cell));
        }
    }
}

}  // namespace natscale
