// The distributed-sweep worker protocol (documented in docs/distributed.md).
//
// Coordinator and workers speak over the NATSVC01 framing of
// service/protocol — the same 8-byte length-prefixed frames, FrameReader
// and protocol_error — with dist-specific message types in their own range
// (64+, disjoint from the daemon's 1..18 so a frame log is unambiguous).
// The channel is request/response per worker: the coordinator assigns one
// task at a time, the worker replies with one result (heartbeats may
// interleave from a helper thread).
//
//   worker  -> coordinator   worker_hello     version, spawn index, pid
//   coordinator -> worker    worker_config    natbin path + sweep knobs
//   coordinator -> worker    task_assign      (delta, column shard) task
//   worker  -> coordinator   task_result      checkpoint-format partial
//   worker  -> coordinator   task_error       named per-task failure
//   worker  -> coordinator   heartbeat        lease keep-alive
//
// A task is (delta, shard_index) where the shard partition is
// column_shards(n), or the single shard [0, n) for a stream that is sparse
// by its event count — a pure function of the stream header, so every
// process derives the identical task list.  The worker resolves the backend exactly as the
// single-process engine would (select_backend on the aggregated series):
// dense scans honour [col_begin, col_end); a sparse-resolved series has no
// column-restricted scan, so shard 0 carries the whole scan and the other
// shards of that delta return empty partials (merging an empty histogram
// is the identity, so the merged result is unchanged — see
// docs/distributed.md for the full split-invariance argument).  When the
// stream is sparse by its event count, which bounds every delta's edge
// count, the coordinator plans one [0, n) task per delta instead.
//
// The task_result payload is the checkpoint histogram encoding of
// online/checkpoint: bin counts, total, and the two ExactSum moment
// accumulators limb-for-limb, followed by an FNV-1a checksum over the
// preceding payload bytes.  Restoring it via Histogram01::restore is
// bit-identical to the worker's accumulator, and the checksum turns a
// corrupt partial into a *diagnosed* retry instead of a wrong answer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "stats/histogram01.hpp"
#include "util/types.hpp"

namespace natscale::dist {

inline constexpr std::uint32_t kDistProtocolVersion = 1;

/// Dist message types, carried in the NATSVC01 frame header.  The range is
/// disjoint from service::MessageType's daemon values.
enum class DistMessage : std::uint32_t {
    worker_hello = 64,
    worker_config = 65,
    task_assign = 66,
    task_result = 67,
    task_error = 68,
    heartbeat = 69,
};

inline service::MessageType as_frame_type(DistMessage type) {
    return static_cast<service::MessageType>(static_cast<std::uint32_t>(type));
}

/// One (delta, column shard) unit of sweep work.  `id` is globally unique
/// within a coordinator run and identifies the task across retries — the
/// idempotency key that lets a late duplicate reply be discarded.
struct DistTask {
    std::uint64_t id = 0;
    Time delta = 1;
    NodeId col_begin = 0;
    NodeId col_end = 0;
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;
};

struct WorkerHello {
    std::uint32_t version = kDistProtocolVersion;
    std::uint64_t spawn_index = 0;
    std::uint64_t pid = 0;
};

struct WorkerConfig {
    std::string natbin_path;
    std::uint64_t histogram_bins = 0;
    std::uint32_t backend = 0;        // ReachabilityBackend enumerator
    std::uint64_t heartbeat_ms = 0;   // 0 = no heartbeats
};

struct TaskResult {
    std::uint64_t task_id = 0;
    Histogram01 partial{1};
};

struct TaskError {
    std::uint64_t task_id = 0;
    std::string message;
};

struct Heartbeat {
    std::uint64_t task_id = 0;  // 0 = idle
};

// --- encoders (payload only; wrap with service::append_frame) ---------------

std::vector<std::byte> encode_worker_hello(const WorkerHello& msg);
std::vector<std::byte> encode_worker_config(const WorkerConfig& msg);
std::vector<std::byte> encode_task_assign(const DistTask& task);
std::vector<std::byte> encode_task_result(const TaskResult& msg);
std::vector<std::byte> encode_task_error(const TaskError& msg);
std::vector<std::byte> encode_heartbeat(const Heartbeat& msg);

// --- parsers (throw service::protocol_error(bad_frame) when malformed) ------

WorkerHello parse_worker_hello(std::span<const std::byte> payload);
WorkerConfig parse_worker_config(std::span<const std::byte> payload);
DistTask parse_task_assign(std::span<const std::byte> payload);
TaskResult parse_task_result(std::span<const std::byte> payload);
TaskError parse_task_error(std::span<const std::byte> payload);
Heartbeat parse_heartbeat(std::span<const std::byte> payload);

}  // namespace natscale::dist
