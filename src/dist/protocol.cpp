#include "dist/protocol.hpp"

#include <limits>

#include "temporal/reachability.hpp"
#include "util/wire.hpp"

namespace natscale::dist {

using service::ErrorCode;
using service::protocol_error;
using Writer = wire::Writer;

namespace {

/// Bounds-checked forward reader over one dist payload; errors are
/// protocol_error(bad_frame) so the connection layers treat a malformed
/// dist payload exactly like a malformed daemon payload.
class Reader {
public:
    explicit Reader(std::span<const std::byte> payload) : payload_(payload) {}

    std::uint32_t u32() { return wire::get_u32(take(4)); }
    std::uint64_t u64() { return wire::get_u64(take(8)); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    std::string str() {
        const std::uint32_t length = u32();
        if (length > service::kMaxStringBytes) {
            throw protocol_error(ErrorCode::bad_frame, "dist string too long");
        }
        const std::byte* at = take(length);
        return std::string(reinterpret_cast<const char*>(at), length);
    }

    void require_items(std::uint64_t count, std::size_t item_bytes) const {
        if (count > (payload_.size() - pos_) / item_bytes) {
            throw protocol_error(ErrorCode::bad_frame, "truncated dist payload");
        }
    }

    void done() const {
        if (pos_ != payload_.size()) {
            throw protocol_error(ErrorCode::bad_frame, "trailing bytes in dist payload");
        }
    }

    std::size_t position() const { return pos_; }

private:
    const std::byte* take(std::size_t count) {
        if (count > payload_.size() - pos_) {
            throw protocol_error(ErrorCode::bad_frame, "truncated dist payload");
        }
        const std::byte* at = payload_.data() + pos_;
        pos_ += count;
        return at;
    }

    std::span<const std::byte> payload_;
    std::size_t pos_ = 0;
};

void put_string(Writer& out, const std::string& text) {
    out.u32(static_cast<std::uint32_t>(text.size()));
    out.raw(text.data(), text.size());
}

void put_exact_sum(Writer& out, const ExactSum& sum) {
    for (const std::uint64_t limb : sum.limbs()) out.u64(limb);
}

ExactSum get_exact_sum(Reader& in) {
    std::array<std::uint64_t, ExactSum::kLimbs> limbs;
    for (std::uint64_t& limb : limbs) limb = in.u64();
    return ExactSum::from_limbs(limbs);
}

}  // namespace

std::vector<std::byte> encode_worker_hello(const WorkerHello& msg) {
    Writer out;
    out.u32(msg.version);
    out.u64(msg.spawn_index);
    out.u64(msg.pid);
    return std::move(out.bytes());
}

WorkerHello parse_worker_hello(std::span<const std::byte> payload) {
    Reader in(payload);
    WorkerHello msg;
    msg.version = in.u32();
    msg.spawn_index = in.u64();
    msg.pid = in.u64();
    in.done();
    return msg;
}

std::vector<std::byte> encode_worker_config(const WorkerConfig& msg) {
    Writer out;
    put_string(out, msg.natbin_path);
    out.u64(msg.histogram_bins);
    out.u32(msg.backend);
    out.u32(0);  // reserved
    out.u64(msg.heartbeat_ms);
    return std::move(out.bytes());
}

WorkerConfig parse_worker_config(std::span<const std::byte> payload) {
    Reader in(payload);
    WorkerConfig msg;
    msg.natbin_path = in.str();
    msg.histogram_bins = in.u64();
    if (msg.histogram_bins == 0) {
        throw protocol_error(ErrorCode::bad_frame, "zero histogram resolution");
    }
    msg.backend = in.u32();
    if (msg.backend > static_cast<std::uint32_t>(ReachabilityBackend::sparse)) {
        throw protocol_error(ErrorCode::bad_frame, "unknown reachability backend");
    }
    if (in.u32() != 0) {
        throw protocol_error(ErrorCode::bad_frame, "nonzero reserved dist field");
    }
    msg.heartbeat_ms = in.u64();
    in.done();
    return msg;
}

std::vector<std::byte> encode_task_assign(const DistTask& task) {
    Writer out;
    out.u64(task.id);
    out.i64(task.delta);
    out.u32(task.col_begin);
    out.u32(task.col_end);
    out.u32(task.shard_index);
    out.u32(task.shard_count);
    return std::move(out.bytes());
}

DistTask parse_task_assign(std::span<const std::byte> payload) {
    Reader in(payload);
    DistTask task;
    task.id = in.u64();
    task.delta = in.i64();
    task.col_begin = in.u32();
    task.col_end = in.u32();
    task.shard_index = in.u32();
    task.shard_count = in.u32();
    in.done();
    if (task.delta < 1 || task.col_begin > task.col_end ||
        task.shard_count == 0 || task.shard_index >= task.shard_count) {
        throw protocol_error(ErrorCode::bad_frame, "malformed dist task");
    }
    return task;
}

std::vector<std::byte> encode_task_result(const TaskResult& msg) {
    Writer out;
    out.u64(msg.task_id);
    out.u64(msg.partial.num_bins());
    out.u64(msg.partial.total());
    for (const std::uint64_t count : msg.partial.counts()) out.u64(count);
    put_exact_sum(out, msg.partial.moment_sum());
    put_exact_sum(out, msg.partial.moment_sum_sq());
    out.u64(wire::fnv1a64(out.bytes().data(), out.bytes().size()));
    return std::move(out.bytes());
}

TaskResult parse_task_result(std::span<const std::byte> payload) {
    if (payload.size() < 8) {
        throw protocol_error(ErrorCode::bad_frame, "truncated dist payload");
    }
    const std::uint64_t declared = wire::get_u64(payload.data() + payload.size() - 8);
    if (declared != wire::fnv1a64(payload.data(), payload.size() - 8)) {
        throw protocol_error(ErrorCode::bad_frame, "dist partial checksum mismatch");
    }
    Reader in(payload.first(payload.size() - 8));
    TaskResult msg;
    msg.task_id = in.u64();
    const std::uint64_t bins = in.u64();
    if (bins == 0) {
        throw protocol_error(ErrorCode::bad_frame, "zero histogram resolution");
    }
    const std::uint64_t total = in.u64();
    in.require_items(bins, 8);
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(bins));
    for (std::uint64_t& count : counts) count = in.u64();
    if (!Histogram01::counts_sum_to(counts, total)) {
        throw protocol_error(ErrorCode::bad_frame, "dist partial counts do not sum");
    }
    const ExactSum sum = get_exact_sum(in);
    const ExactSum sum_sq = get_exact_sum(in);
    in.done();
    msg.partial = Histogram01::restore(std::move(counts), total, sum, sum_sq);
    return msg;
}

std::vector<std::byte> encode_task_error(const TaskError& msg) {
    Writer out;
    out.u64(msg.task_id);
    put_string(out, msg.message);
    return std::move(out.bytes());
}

TaskError parse_task_error(std::span<const std::byte> payload) {
    Reader in(payload);
    TaskError msg;
    msg.task_id = in.u64();
    msg.message = in.str();
    in.done();
    return msg;
}

std::vector<std::byte> encode_heartbeat(const Heartbeat& msg) {
    Writer out;
    out.u64(msg.task_id);
    return std::move(out.bytes());
}

Heartbeat parse_heartbeat(std::span<const std::byte> payload) {
    Reader in(payload);
    Heartbeat msg;
    msg.task_id = in.u64();
    in.done();
    return msg;
}

}  // namespace natscale::dist
