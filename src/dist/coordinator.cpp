#include "dist/coordinator.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "dist/protocol.hpp"
#include "dist/task_runner.hpp"
#include "dist/worker.hpp"
#include "linkstream/binary_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/column_shards.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/contracts.hpp"
#include "util/fd_io.hpp"

extern char** environ;

namespace natscale::dist {

namespace {

using Clock = std::chrono::steady_clock;
using service::Frame;
using service::FrameReader;
using service::protocol_error;

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::string self_exe_path() {
    char buffer[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (n <= 0) return {};
    buffer[n] = '\0';
    return std::string(buffer);
}

/// One (delta, shard) task slot of the current evaluate() round: its
/// lifecycle (queued -> running -> done, with requeues on failure) plus
/// the merged-in-order partial once done.
struct Slot {
    DistTask task;
    std::size_t grid_index = 0;
    enum class State { queued, running, done } state = State::queued;
    std::uint32_t attempts = 0;      // assignments so far (for backoff + cap)
    Clock::time_point ready_at{};    // backoff gate: earliest reassignment
    std::uint64_t assigned_ns = 0;   // trace clock at last assignment
    Histogram01 partial{1};
};

/// The dist slice of the obs registry: DistSweepStats is a per-engine
/// view, these counters the process-cumulative one — every stats field
/// increment below mirrors into its registry twin, so live `stats`
/// queries and `--metrics-out` heartbeats see fleet churn as it happens.
struct DistCounters {
    obs::Counter& workers_spawned = obs::counter("dist.workers_spawned");
    obs::Counter& workers_connected = obs::counter("dist.workers_connected");
    obs::Counter& worker_deaths = obs::counter("dist.worker_deaths");
    obs::Counter& spawn_failures = obs::counter("dist.spawn_failures");
    obs::Counter& tasks_total = obs::counter("dist.tasks_total");
    obs::Counter& task_assigns = obs::counter("dist.task_assigns");
    obs::Counter& task_retries = obs::counter("dist.task_retries");
    obs::Counter& stalled_leases = obs::counter("dist.stalled_leases");
    obs::Counter& corrupt_partials = obs::counter("dist.corrupt_partials");
    obs::Counter& duplicate_replies = obs::counter("dist.duplicate_replies");
    obs::Counter& tasks_inprocess = obs::counter("dist.tasks_inprocess");
    obs::Counter& heartbeats = obs::counter("dist.heartbeats");
};

struct WorkerConn {
    int fd = -1;
    pid_t pid = -1;  // our child's pid, or -1 for an externally attached worker
    FrameReader reader;
    bool ready = false;            // hello received, config sent
    std::ptrdiff_t slot = -1;      // running task slot; -1 idle
    Clock::time_point deadline{};  // lease expiry while running
};

}  // namespace

struct DistSweepEngine::Impl {
    std::string path;
    SweepConfig config;
    DistConfig dist;
    LoadedStream loaded;
    TaskRunner local_runner;  // the in-process degradation path
    DistSweepStats stats;
    DistCounters obs_counters;

    int listener = -1;
    std::string socket_path;
    std::map<int, WorkerConn> conns;             // by fd
    std::map<pid_t, std::uint64_t> children;     // live child pids -> spawn index
    std::set<pid_t> ever_connected;              // child pids that completed hello
    std::uint64_t spawn_counter = 0;
    bool spawning_given_up = false;
    std::uint64_t next_task_id = 1;

    // Round state (one evaluate() call).
    std::vector<Slot> slots;
    std::vector<std::size_t> first_slot;  // CSR: slots of grid point g
    std::unordered_map<std::uint64_t, std::size_t> slot_of_task;
    std::size_t done_count = 0;

    Impl(std::string natbin_path, const SweepConfig& sweep, DistConfig dist_config)
        : path(std::move(natbin_path)),
          config(sweep),
          dist(std::move(dist_config)),
          loaded(open_natbin(path)),
          local_runner(loaded.stream, sweep.histogram_bins,
                       static_cast<std::uint32_t>(sweep.backend)) {
        stats.workers_requested = dist.workers;
        if (dist.spawn_limit == 0) dist.spawn_limit = dist.workers * 8;
        if (dist.heartbeat_ms == 0) {
            dist.heartbeat_ms = std::max<std::uint64_t>(dist.lease_timeout_ms / 4, 1);
        }
    }

    ~Impl() {
        for (auto& [fd, conn] : conns) ::close(fd);
        conns.clear();
        for (const auto& [pid, spawn] : children) {
            ::kill(pid, SIGKILL);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
        children.clear();
        if (listener >= 0) ::close(listener);
        if (!socket_path.empty()) ::unlink(socket_path.c_str());
    }

    // --- fleet -------------------------------------------------------------

    void ensure_listener() {
        if (listener >= 0) return;
        static std::atomic<unsigned> counter{0};
        const auto dir = std::filesystem::temp_directory_path();
        socket_path = (dir / ("natscale_dist_" + std::to_string(::getpid()) + "_" +
                              std::to_string(counter.fetch_add(1)) + ".sock"))
                          .string();
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socket_path.size() >= sizeof(addr.sun_path)) {
            throw std::runtime_error("coordinator socket path too long: " + socket_path);
        }
        listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (listener < 0) throw_errno("socket(AF_UNIX)");
        ::unlink(socket_path.c_str());
        std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
        if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
            throw_errno("bind(" + socket_path + ")");
        }
        if (::listen(listener, 64) < 0) throw_errno("listen(" + socket_path + ")");
    }

    bool can_spawn() const {
        return !spawning_given_up && spawn_counter < dist.spawn_limit;
    }

    /// Forks + execs one worker.  The child gets NATSCALE_DIST_SPAWN=<index>
    /// (monotonic across respawns) so env-scoped fault injection can target
    /// "the first K processes" and leave replacements alone.
    void spawn_worker() {
        const std::uint64_t spawn_index = spawn_counter;
        std::vector<std::string> args = dist.worker_cmd;
        if (args.empty()) {
            std::string exe = self_exe_path();
            if (exe.empty()) {
                spawning_given_up = true;
                ++stats.spawn_failures;
                obs_counters.spawn_failures.add();
                return;
            }
            args.push_back(std::move(exe));
        }
        args.emplace_back(kWorkerSubcommand);
        args.push_back("--connect=" + socket_path);

        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& arg : args) argv.push_back(arg.data());
        argv.push_back(nullptr);

        const std::string spawn_var =
            "NATSCALE_DIST_SPAWN=" + std::to_string(spawn_index);
        std::vector<char*> envp;
        for (char** env = environ; *env != nullptr; ++env) {
            if (std::strncmp(*env, "NATSCALE_DIST_SPAWN=", 20) == 0) continue;
            envp.push_back(*env);
        }
        envp.push_back(const_cast<char*>(spawn_var.c_str()));
        envp.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid < 0) {
            // Cannot fork at all: degrade rather than spin on a full
            // process table.
            spawning_given_up = true;
            ++stats.spawn_failures;
            obs_counters.spawn_failures.add();
            return;
        }
        if (pid == 0) {
            ::execve(argv[0], argv.data(), envp.data());
            ::_exit(127);  // exec failed; the parent reaps a spawn failure
        }
        ++spawn_counter;
        ++stats.workers_spawned;
        obs_counters.workers_spawned.add();
        obs::Instant("dist.worker_spawn")
            .attr("pid", static_cast<std::int64_t>(pid))
            .attr("spawn_index", spawn_index);
        children.emplace(pid, spawn_index);
    }

    std::size_t fleet_size() const { return conns.size() + unconnected_children(); }

    std::size_t unconnected_children() const {
        std::size_t count = 0;
        for (const auto& [pid, spawn] : children) {
            if (ever_connected.count(pid) == 0) ++count;
        }
        return count;
    }

    void ensure_fleet() {
        if (dist.workers == 0) return;
        ensure_listener();
        while (fleet_size() < dist.workers && can_spawn()) spawn_worker();
    }

    /// Reaps exited children.  A child that died without ever completing
    /// the hello handshake is a spawn failure (bad --worker-cmd, exec
    /// error, crash on startup); enough of those and the engine stops
    /// burning processes and degrades to in-process execution.
    void reap_children() {
        for (auto it = children.begin(); it != children.end();) {
            int status = 0;
            const pid_t done = ::waitpid(it->first, &status, WNOHANG);
            if (done == it->first) {
                if (ever_connected.count(it->first) == 0) {
                    ++stats.spawn_failures;
                    obs_counters.spawn_failures.add();
                    if (stats.spawn_failures >= dist.workers + 2) {
                        spawning_given_up = true;
                    }
                }
                ever_connected.erase(it->first);
                it = children.erase(it);
            } else {
                ++it;
            }
        }
    }

    void kill_worker(WorkerConn& conn) {
        if (conn.pid > 0) {
            ::kill(conn.pid, SIGKILL);
            int status = 0;
            ::waitpid(conn.pid, &status, 0);
            ever_connected.erase(conn.pid);
            children.erase(conn.pid);
        }
        ::close(conn.fd);
        conns.erase(conn.fd);  // invalidates conn
    }

    // --- task lifecycle ----------------------------------------------------

    std::uint64_t backoff_ms(std::uint32_t attempts) const {
        std::uint64_t backoff = dist.backoff_base_ms;
        for (std::uint32_t i = 1; i < attempts && backoff < dist.backoff_max_ms; ++i) {
            backoff *= 2;
        }
        return std::min(backoff, dist.backoff_max_ms);
    }

    void run_inprocess(Slot& slot) {
        obs::Span span("dist.task_inprocess");
        if (span.active()) {
            span.attr("task", slot.task.id);
            span.attr("delta", static_cast<std::int64_t>(slot.task.delta));
            span.attr("shard", static_cast<std::uint64_t>(slot.task.shard_index));
        }
        slot.partial = local_runner.run(slot.task);
        slot.state = Slot::State::done;
        ++done_count;
        ++stats.tasks_inprocess;
        obs_counters.tasks_inprocess.add();
    }

    /// Returns a failed slot to the queue with exponential backoff, or —
    /// once its attempts are spent — runs it in-process so the sweep
    /// terminates no matter how hostile the fleet.
    void requeue(std::size_t slot_index, Clock::time_point now) {
        Slot& slot = slots[slot_index];
        if (slot.state == Slot::State::done) return;
        ++stats.task_retries;
        obs_counters.task_retries.add();
        obs::Instant("dist.task_retry")
            .attr("task", slot.task.id)
            .attr("attempts", static_cast<std::uint64_t>(slot.attempts));
        if (slot.attempts >= dist.max_task_attempts) {
            run_inprocess(slot);
            return;
        }
        slot.state = Slot::State::queued;
        slot.ready_at = now + std::chrono::milliseconds(backoff_ms(slot.attempts));
    }

    void worker_lost(WorkerConn& conn, Clock::time_point now) {
        if (conn.ready) {
            ++stats.worker_deaths;
            obs_counters.worker_deaths.add();
            obs::Instant("dist.worker_death")
                .attr("pid", static_cast<std::int64_t>(conn.pid));
        }
        const std::ptrdiff_t slot = conn.slot;
        kill_worker(conn);  // conn is dead after this
        if (slot >= 0) requeue(static_cast<std::size_t>(slot), now);
    }

    void assign(WorkerConn& conn, std::size_t slot_index, Clock::time_point now) {
        Slot& slot = slots[slot_index];
        slot.state = Slot::State::running;
        ++slot.attempts;
        slot.assigned_ns = obs::TraceSink::now_ns();
        conn.slot = static_cast<std::ptrdiff_t>(slot_index);
        conn.deadline = now + std::chrono::milliseconds(dist.lease_timeout_ms);
        obs_counters.task_assigns.add();
        obs::Instant("dist.task_assign")
            .attr("task", slot.task.id)
            .attr("delta", static_cast<std::int64_t>(slot.task.delta))
            .attr("shard", static_cast<std::uint64_t>(slot.task.shard_index))
            .attr("attempt", static_cast<std::uint64_t>(slot.attempts))
            .attr("worker_pid", static_cast<std::int64_t>(conn.pid));
        const std::vector<std::byte> payload = encode_task_assign(slot.task);
        std::vector<std::byte> bytes;
        service::append_frame(bytes, as_frame_type(DistMessage::task_assign), payload);
        if (!fdio::send_all(conn.fd, bytes.data(), bytes.size())) {
            worker_lost(conn, now);
        }
    }

    void assign_ready_work(Clock::time_point now) {
        for (auto it = conns.begin(); it != conns.end();) {
            WorkerConn& conn = it->second;
            ++it;  // assign() may erase conn on send failure
            if (!conn.ready || conn.slot >= 0) continue;
            std::ptrdiff_t pick = -1;
            for (std::size_t s = 0; s < slots.size(); ++s) {
                if (slots[s].state == Slot::State::queued && slots[s].ready_at <= now) {
                    pick = static_cast<std::ptrdiff_t>(s);
                    break;
                }
            }
            if (pick < 0) return;
            assign(conn, static_cast<std::size_t>(pick), now);
        }
    }

    // --- frame handling ----------------------------------------------------

    void accept_connections() {
        for (;;) {
            const int fd = ::accept4(listener, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) {
                if (errno == EINTR) continue;
                return;  // EAGAIN or transient failure: keep serving
            }
            WorkerConn conn;
            conn.fd = fd;
            conns.emplace(fd, std::move(conn));
        }
    }

    void handle_hello(WorkerConn& conn, const Frame& frame) {
        const WorkerHello hello = parse_worker_hello(frame.payload);
        if (hello.version != kDistProtocolVersion) {
            throw protocol_error(service::ErrorCode::bad_frame,
                                 "worker speaks dist protocol version " +
                                     std::to_string(hello.version));
        }
        const pid_t pid = static_cast<pid_t>(hello.pid);
        if (children.count(pid) != 0) {
            conn.pid = pid;
            ever_connected.insert(pid);
        }
        WorkerConfig config_msg;
        config_msg.natbin_path = path;
        config_msg.histogram_bins = config.histogram_bins;
        config_msg.backend = static_cast<std::uint32_t>(config.backend);
        config_msg.heartbeat_ms = dist.heartbeat_ms;
        std::vector<std::byte> bytes;
        service::append_frame(bytes, as_frame_type(DistMessage::worker_config),
                              encode_worker_config(config_msg));
        if (!fdio::send_all(conn.fd, bytes.data(), bytes.size())) {
            throw protocol_error(service::ErrorCode::internal, "config send failed");
        }
        conn.ready = true;
        ++stats.workers_connected;
        obs_counters.workers_connected.add();
    }

    void handle_result(WorkerConn& conn, const Frame& frame, Clock::time_point now) {
        const TaskResult result = parse_task_result(frame.payload);  // checksummed
        const auto found = slot_of_task.find(result.task_id);
        if (found == slot_of_task.end()) {
            // A reply for a task of an earlier round (or an id we never
            // issued): the idempotency key says drop it.
            ++stats.duplicate_replies;
            obs_counters.duplicate_replies.add();
            return;
        }
        Slot& slot = slots[found->second];
        if (slot.state == Slot::State::done) {
            ++stats.duplicate_replies;
            obs_counters.duplicate_replies.add();
        } else {
            slot.partial = result.partial;
            slot.state = Slot::State::done;
            ++done_count;
            // The task's lifetime (assignment -> merged result) as one
            // complete trace span, id'd by the task id.
            if (obs::TraceSink* sink = obs::trace_sink()) {
                const std::uint64_t end_ns = obs::TraceSink::now_ns();
                obs::SpanRecord record;
                record.name = "dist.task";
                record.id = slot.task.id;
                record.start_ns = slot.assigned_ns;
                record.duration_ns =
                    end_ns > slot.assigned_ns ? end_ns - slot.assigned_ns : 1;
                record.thread = obs::thread_ordinal();
                record.num_attrs = 4;
                record.attrs[0] = {"task", obs::Attr::Kind::u64, 0, slot.task.id, 0.0, {}};
                record.attrs[1] = {"delta", obs::Attr::Kind::i64,
                                   static_cast<std::int64_t>(slot.task.delta), 0, 0.0, {}};
                record.attrs[2] = {"shard", obs::Attr::Kind::u64, 0,
                                   slot.task.shard_index, 0.0, {}};
                record.attrs[3] = {"worker_pid", obs::Attr::Kind::i64,
                                   static_cast<std::int64_t>(conn.pid), 0, 0.0, {}};
                sink->emit(record);
            }
        }
        if (conn.slot == static_cast<std::ptrdiff_t>(found->second)) {
            conn.slot = -1;  // idle again; lease retired
        }
        (void)now;
    }

    /// Reads everything the socket has; true while the connection lives.
    bool drain_worker(WorkerConn& conn, Clock::time_point now) {
        std::byte chunk[64 * 1024];
        for (;;) {
            const ssize_t n = fdio::recv_retry(conn.fd, chunk, sizeof(chunk));
            if (n > 0) {
                try {
                    conn.reader.feed(
                        std::span<const std::byte>(chunk, static_cast<std::size_t>(n)));
                    Frame frame;
                    while (conn.reader.next(frame)) {
                        if (!conn.ready) {
                            if (frame.type == as_frame_type(DistMessage::worker_hello)) {
                                handle_hello(conn, frame);
                            }
                            continue;
                        }
                        if (frame.type == as_frame_type(DistMessage::task_result)) {
                            handle_result(conn, frame, now);
                        } else if (frame.type == as_frame_type(DistMessage::heartbeat)) {
                            obs_counters.heartbeats.add();
                            obs::Instant("dist.heartbeat")
                                .attr("pid", static_cast<std::int64_t>(conn.pid));
                            if (conn.slot >= 0) {
                                conn.deadline =
                                    now + std::chrono::milliseconds(dist.lease_timeout_ms);
                            }
                        } else if (frame.type == as_frame_type(DistMessage::task_error)) {
                            const TaskError error = parse_task_error(frame.payload);
                            const auto found = slot_of_task.find(error.task_id);
                            if (conn.slot >= 0 &&
                                found != slot_of_task.end() &&
                                conn.slot == static_cast<std::ptrdiff_t>(found->second)) {
                                conn.slot = -1;
                                requeue(found->second, now);
                            }
                        }
                        // Unknown dist types: ignored for forward compatibility.
                    }
                } catch (const protocol_error&) {
                    // Corrupt partial, bad checksum, unparsable payload: the
                    // byte stream is no longer trustworthy.  Drop the worker,
                    // requeue its lease.
                    ++stats.corrupt_partials;
                    obs_counters.corrupt_partials.add();
                    obs::Instant("dist.corrupt_partial")
                        .attr("pid", static_cast<std::int64_t>(conn.pid));
                    const std::ptrdiff_t slot = conn.slot;
                    kill_worker(conn);
                    if (slot >= 0) requeue(static_cast<std::size_t>(slot), now);
                    return false;
                }
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
            // EOF or hard error: SIGKILL'd child, crash, or half-written
            // frame followed by death — requeue whatever it was holding.
            worker_lost(conn, now);
            return false;
        }
    }

    void expire_leases(Clock::time_point now) {
        for (auto it = conns.begin(); it != conns.end();) {
            WorkerConn& conn = it->second;
            ++it;
            if (!conn.ready || conn.slot < 0 || now < conn.deadline) continue;
            // Silent past its lease: hung, stalled, or livelocked.  The
            // task moves on; the worker is killed (a kill is the only safe
            // retirement — a stalled process might wake up and reply).
            ++stats.stalled_leases;
            obs_counters.stalled_leases.add();
            obs::Instant("dist.lease_expired")
                .attr("task", slots[static_cast<std::size_t>(conn.slot)].task.id)
                .attr("pid", static_cast<std::int64_t>(conn.pid));
            const std::ptrdiff_t slot = conn.slot;
            kill_worker(conn);
            requeue(static_cast<std::size_t>(slot), now);
        }
    }

    // --- the round ---------------------------------------------------------

    int poll_timeout_ms(Clock::time_point now) const {
        auto timeout = std::chrono::milliseconds(250);
        bool queued_ready = false;
        bool idle_ready_worker = false;
        for (const auto& [fd, conn] : conns) {
            if (conn.ready && conn.slot < 0) idle_ready_worker = true;
            if (conn.ready && conn.slot >= 0) {
                timeout = std::min(timeout, std::chrono::ceil<std::chrono::milliseconds>(
                                                conn.deadline - now));
            }
        }
        for (const Slot& slot : slots) {
            if (slot.state != Slot::State::queued) continue;
            if (slot.ready_at <= now) {
                queued_ready = true;
            } else {
                timeout = std::min(timeout, std::chrono::ceil<std::chrono::milliseconds>(
                                                slot.ready_at - now));
            }
        }
        // Work is waiting but nobody can take it: poll briefly so child
        // reaping and respawning stay responsive.
        if (queued_ready && !idle_ready_worker) {
            timeout = std::min(timeout, std::chrono::milliseconds(50));
        }
        return std::max<int>(1, static_cast<int>(timeout.count()));
    }

    void pump(Clock::time_point now) {
        std::vector<pollfd> fds;
        fds.reserve(conns.size() + 1);
        if (listener >= 0) fds.push_back({listener, POLLIN, 0});
        for (const auto& [fd, conn] : conns) fds.push_back({fd, POLLIN, 0});

        const int rc = ::poll(fds.data(), fds.size(), poll_timeout_ms(now));
        if (rc < 0 && errno != EINTR) throw_errno("poll");
        now = Clock::now();
        if (rc > 0) {
            for (const pollfd& entry : fds) {
                if ((entry.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
                if (entry.fd == listener) {
                    accept_connections();
                    continue;
                }
                const auto it = conns.find(entry.fd);
                if (it != conns.end()) drain_worker(it->second, now);
            }
        }
        reap_children();
        expire_leases(Clock::now());
    }

    /// True when the fleet is gone for good: nothing connected, nothing
    /// forked-and-connecting, and no spawn budget left to try again.
    bool fleet_unrecoverable() {
        return conns.empty() && unconnected_children() == 0 && !can_spawn();
    }

    std::vector<DeltaPoint> evaluate(std::span<const Time> grid,
                                     std::vector<Histogram01>* histograms_out) {
        const auto started = Clock::now();
        obs::Span round_span("dist.evaluate");
        std::vector<DeltaPoint> points(grid.size());
        if (histograms_out != nullptr) {
            histograms_out->assign(grid.size(), Histogram01(config.histogram_bins));
        }
        if (grid.empty()) return points;

        // Build the round's slots: the shard partition is a pure function
        // of n, so workers, coordinator and the single-process engine all
        // agree on it without communicating.  A sparse scan is never
        // column-restricted, so a delta that resolves sparse gets one
        // whole-delta task.  The stream's event count bounds every delta's
        // total_edges() and select_backend is monotone in the arc count, so
        // a stream sparse by its events is sparse at every delta.
        const NodeId n = loaded.stream.num_nodes();
        ReachabilityOptions backend_options;
        backend_options.backend = config.backend;
        std::vector<ColumnShard> shards =
            select_backend(n, loaded.stream.num_events(), backend_options) ==
                    ReachabilityBackend::sparse
                ? std::vector<ColumnShard>{{0, n}}
                : column_shards(n);
        if (shards.empty()) shards.push_back({0, 0});
        slots.clear();
        first_slot.assign(grid.size() + 1, 0);
        slot_of_task.clear();
        done_count = 0;
        const auto now = Clock::now();
        for (std::size_t g = 0; g < grid.size(); ++g) {
            first_slot[g] = slots.size();
            NATSCALE_EXPECTS(grid[g] >= 1);
            for (std::size_t s = 0; s < shards.size(); ++s) {
                Slot slot;
                slot.task.id = next_task_id++;
                slot.task.delta = grid[g];
                slot.task.col_begin = shards[s].begin;
                slot.task.col_end = shards[s].end;
                slot.task.shard_index = static_cast<std::uint32_t>(s);
                slot.task.shard_count = static_cast<std::uint32_t>(shards.size());
                slot.grid_index = g;
                slot.ready_at = now;
                slot_of_task.emplace(slot.task.id, slots.size());
                slots.push_back(std::move(slot));
            }
        }
        first_slot[grid.size()] = slots.size();
        stats.tasks_total += slots.size();
        obs_counters.tasks_total.add(slots.size());
        if (round_span.active()) {
            round_span.attr("grid", static_cast<std::uint64_t>(grid.size()));
            round_span.attr("tasks", static_cast<std::uint64_t>(slots.size()));
            round_span.attr("workers", static_cast<std::uint64_t>(dist.workers));
        }

        ensure_fleet();
        while (done_count < slots.size()) {
            if (dist.workers == 0 || fleet_unrecoverable()) {
                // Graceful degradation: finish everything in-process, in
                // slot order (the TaskRunner's delta cache likes it, and
                // the merge order never depended on execution order).
                for (Slot& slot : slots) {
                    if (slot.state != Slot::State::done) run_inprocess(slot);
                }
                break;
            }
            assign_ready_work(Clock::now());
            if (done_count >= slots.size()) break;
            pump(Clock::now());
            ensure_fleet();  // respawn after deaths while work remains
        }

        // Deterministic merge: ascending shard order within each grid
        // point, as in the split mode of the single-process scan driver
        // (temporal/sharded_scan).
        obs::Span merge_span("dist.merge");
        if (merge_span.active()) {
            merge_span.attr("partials", static_cast<std::uint64_t>(slots.size()));
        }
        for (std::size_t g = 0; g < grid.size(); ++g) {
            Histogram01 merged = std::move(slots[first_slot[g]].partial);
            for (std::size_t s = first_slot[g] + 1; s < first_slot[g + 1]; ++s) {
                merged.merge(slots[s].partial);
            }
            points[g] = score_delta_point(grid[g], merged, config.shannon_slots);
            if (histograms_out != nullptr) (*histograms_out)[g] = std::move(merged);
        }
        slots.clear();
        slot_of_task.clear();
        stats.wall_seconds +=
            std::chrono::duration<double>(Clock::now() - started).count();
        return points;
    }
};

DistSweepEngine::DistSweepEngine(std::string natbin_path, const SweepConfig& config,
                                 DistConfig dist)
    : impl_(std::make_unique<Impl>(std::move(natbin_path), config, std::move(dist))) {}

DistSweepEngine::~DistSweepEngine() = default;

std::vector<DeltaPoint> DistSweepEngine::evaluate(std::span<const Time> grid,
                                                  std::vector<Histogram01>* histograms_out) {
    return impl_->evaluate(grid, histograms_out);
}

const DistSweepStats& DistSweepEngine::stats() const { return impl_->stats; }

const LinkStream& DistSweepEngine::stream() const { return impl_->loaded.stream; }

SaturationResult find_saturation_scale_dist(const std::string& natbin_path,
                                            const SweepConfig& options,
                                            const DistConfig& dist,
                                            DistSweepStats* stats_out) {
    DistSweepEngine engine(natbin_path, options, dist);
    const LinkStream& stream = engine.stream();
    NATSCALE_EXPECTS(!stream.empty());
    const Time lo = options.min_delta > 0 ? options.min_delta : 1;
    const Time hi = options.max_delta > 0 ? options.max_delta : stream.period_end();
    SaturationResult result;
    try {
        result = find_saturation_scale_with(
            [&engine](std::span<const Time> grid, std::vector<Histogram01>* histograms) {
                return engine.evaluate(grid, histograms);
            },
            lo, hi, options);
    } catch (...) {
        // The search failed mid-flight (I/O error, hostile fleet beyond
        // degradation, ...).  The retry/fault accounting gathered so far
        // is exactly what the caller needs to diagnose it — hand it over
        // before rethrowing instead of losing it with the engine.
        if (stats_out != nullptr) *stats_out = engine.stats();
        throw;
    }
    if (stats_out != nullptr) *stats_out = engine.stats();
    return result;
}

}  // namespace natscale::dist
