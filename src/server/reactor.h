#ifndef UGUIDE_SERVER_REACTOR_H_
#define UGUIDE_SERVER_REACTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace uguide {

class ThreadPool;

/// \brief Incremental newline framing over a byte stream.
///
/// Accumulates arbitrarily-chunked input (down to one byte per Append) and
/// yields complete lines with the trailing '\n' (and optional '\r')
/// stripped. Enforces a maximum line length so a connection cannot grow an
/// unbounded buffer by never sending a newline. Factored out of the
/// reactor so the partial-read framing logic is unit-testable without
/// sockets.
class LineBuffer {
 public:
  explicit LineBuffer(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Appends raw bytes. Returns false when the unextracted bytes exceed
  /// the line bound — the caller should drop the connection. Callers must
  /// drain NextLine between appends so pipelined small lines are not
  /// mistaken for one oversized line.
  bool Append(const char* data, size_t size);

  /// Pops the next complete non-empty line, or nullopt when no full line
  /// is buffered. Empty lines (bare "\n" or "\r\n") are skipped, matching
  /// the keep-alive convention of the wire protocol.
  std::optional<std::string> NextLine();

  /// Bytes buffered but not yet returned (diagnostics/tests).
  size_t pending_bytes() const { return buffer_.size() - start_; }

 private:
  size_t max_line_bytes_;
  std::string buffer_;
  size_t start_ = 0;  ///< Consumed prefix; compacted once it grows.
};

struct ReactorOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  int port = 0;
  int backlog = 64;
  /// Concurrent connections; further accepts are closed immediately
  /// (counted in stats().refused). 0 = unlimited.
  int max_connections = 0;
  /// A connection feeding a line longer than this is dropped.
  size_t max_line_bytes = 1 << 20;
  /// Reply bytes a connection may leave unread before it is hard-dropped
  /// as a slow reader (counted in stats().dropped_slow_reader). Without
  /// the cap a client that opens a session and stops reading grows the
  /// output buffer without bound. 0 = unlimited.
  size_t max_pending_out_bytes = 0;
  /// A connection with no complete line framed within this window is
  /// reaped on the tick (slow-loris defense; counted in
  /// stats().reaped_idle). Connections with queued or in-flight work are
  /// never reaped. 0 = off. Uses the fault-aware clock.
  double read_idle_ms = 0.0;
  /// Period of the maintenance tick (timerfd). 0 derives one from
  /// read_idle_ms (a quarter, floored at 10ms) or stays off when neither
  /// read_idle_ms nor on_tick needs it.
  double tick_interval_ms = 0.0;
  /// Runs on the reactor thread every tick, after idle reaping — the
  /// daemon drives SessionManager::EvictIdle here.
  std::function<void()> on_tick;
  /// Executes handler steps. Null (or a single-thread pool) runs them
  /// inline on the reactor thread — the graceful serial fallback.
  ThreadPool* pool = nullptr;
  /// The protocol: one request line in, reply frames out (newlines are
  /// appended by the reactor). The time_point is when the reactor framed
  /// the line (fault-aware clock) — admission control sheds lines that
  /// waited in queue past the deadline. Must be thread-safe: steps for
  /// distinct connections run concurrently on the pool. Steps for one
  /// connection never overlap and run in arrival order.
  std::function<std::vector<std::string>(
      std::string_view, std::chrono::steady_clock::time_point)>
      handler;
};

struct ReactorStats {
  int64_t accepted = 0;
  int64_t refused = 0;  ///< Closed at accept: over max_connections.
  int64_t dropped = 0;  ///< Connections dropped mid-stream (fault, oversize
                        ///< line, write failure, peer reset, cap, reap).
  /// Of `dropped`: exceeded max_pending_out_bytes (slow reader).
  int64_t dropped_slow_reader = 0;
  /// Of `dropped`: no complete line within read_idle_ms (slow loris).
  int64_t reaped_idle = 0;
  int64_t ticks = 0;  ///< Maintenance ticks run.
};

/// \brief Epoll front end executing protocol steps on a shared pool.
///
/// One reactor thread owns every socket: it accepts, reads, frames lines,
/// and flushes replies over nonblocking fds. Handler execution is the only
/// work that leaves that thread — each connection's parsed lines are
/// drained by at most one pool task at a time (FIFO per connection, so a
/// pipelined client observes strict request order), and the task hands its
/// replies back to the reactor through the connection's output buffer plus
/// an eventfd wakeup. 10k idle connections therefore cost 10k parked
/// buffers, not 10k threads; the thread count is the pool's, bounded and
/// fixed.
///
/// Thread-bound guarantees, relied on throughout:
///  - accept/read/close/epoll_ctl/send happen only on the reactor thread;
///  - a connection's handler steps never run concurrently with each other
///    (`dispatching` flag under the connection mutex);
///  - pool tasks touch only the connection's mutex-guarded queues, never
///    its fd.
///
/// Fault sites mirror the thread-per-connection daemon this replaces:
/// "server.accept" fires per accepted connection, "server.read" per recv
/// on the reactor thread, "server.write" per reply frame on the handler's
/// pool thread (so injected write latency stalls one session's turnaround,
/// not the whole event loop). A failed site drops the connection, never a
/// session.
class Reactor {
 public:
  /// Binds, listens, and starts the reactor thread.
  static Result<std::unique_ptr<Reactor>> Start(ReactorOptions options);

  /// Calls Shutdown() if it has not run yet.
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// The bound port (resolved when options.port was 0).
  int port() const { return port_; }

  /// Stops accepting, joins the reactor thread, waits for in-flight
  /// handler steps, and closes every connection. Idempotent; called from
  /// the owner's thread (the daemon's SIGTERM drain).
  void Shutdown();

  int active_connections() const;
  ReactorStats stats() const;

 private:
  /// Why a connection was hard-dropped; picks the stats counter.
  enum class DropReason { kNone, kSlowReader, kIdleReap };

  /// One framed request plus the instant the reactor framed it.
  struct PendingLine {
    std::string text;
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Connection {
    explicit Connection(int fd_in, size_t max_line_bytes)
        : fd(fd_in), in(max_line_bytes) {}

    const int fd;
    /// Reactor thread only.
    LineBuffer in;
    /// When the last complete line was framed (accept time initially).
    /// Reactor thread only — read by the tick's idle reaper.
    std::chrono::steady_clock::time_point last_line_at;

    /// Guards everything below (the reactor <-> pool-task channel).
    std::mutex mu;
    std::deque<PendingLine> lines;  ///< Framed requests awaiting a step.
    bool dispatching = false;       ///< A pool task is draining `lines`.
    std::string out;                ///< Reply bytes not yet flushed.
    size_t out_offset = 0;
    uint32_t armed_events = 0;  ///< Event mask currently registered.
    bool read_done = false;     ///< EOF/read fault: flush, then close.
    bool closing = false;       ///< Hard drop (write failure/oversize line).
    DropReason drop_reason = DropReason::kNone;
  };

  Reactor() = default;

  void Loop();
  void HandleAccept();
  /// Timerfd maintenance: reap read-idle connections, then on_tick.
  /// Reactor thread only.
  void HandleTick();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void HandleWritable(const std::shared_ptr<Connection>& conn);
  /// Flushes pending output and closes the connection once it is both
  /// drained and finished (or marked for hard drop). Reactor thread only.
  void FlushAndMaybeClose(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  /// Claims the drain slot and enqueues a pool task if none is running.
  /// Caller holds conn->mu. Returns true when the caller must run
  /// DrainLines itself *after releasing the lock* — the inline fallback
  /// for a null or single-threaded pool, whose Submit runs synchronously
  /// and would self-deadlock on conn->mu.
  bool ScheduleDrainLocked(const std::shared_ptr<Connection>& conn);
  /// Pool task: pops lines FIFO, runs the handler, queues replies.
  void DrainLines(std::shared_ptr<Connection> conn);
  /// Marks `fd` as needing reactor attention and wakes the epoll wait.
  void NotifyDirty(int fd);

  ReactorOptions options_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;   ///< eventfd
  int timer_fd_ = -1;  ///< timerfd driving HandleTick; -1 = no tick.
  int port_ = 0;

  std::thread reactor_thread_;
  std::thread::id reactor_tid_;
  std::atomic<bool> stopping_{false};
  bool shut_down_ = false;  // Shutdown() already ran (owner thread only).

  /// Reactor thread only (and Shutdown, after the join).
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  /// Connections pool tasks flagged for flush/close attention.
  std::mutex dirty_mu_;
  std::vector<int> dirty_;

  /// Outstanding DrainLines tasks; Shutdown waits for zero.
  std::mutex in_flight_mu_;
  std::condition_variable in_flight_cv_;
  int in_flight_ = 0;

  mutable std::mutex stats_mu_;
  ReactorStats stats_;
  int active_ = 0;
};

}  // namespace uguide

#endif  // UGUIDE_SERVER_REACTOR_H_
