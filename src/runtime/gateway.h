// Concurrent serving gateway — the cloud side of the edge/cloud runtime,
// rebuilt for production traffic. Where the original blocking server
// accepted one connection at a time (backlog 4, a second session simply
// queued behind the first until the kernel dropped it), the Gateway
// multiplexes many simultaneous edge sessions on an epoll reactor and
// executes requests on a worker pool.
//
// Robustness is the design headline: the gateway must degrade under
// pressure instead of failing.
//
//  * Bounded admission queue with explicit load shedding. When the queue is
//    full, already-expired entries are shed back-to-front first; if no room
//    opens, the incoming request is answered with a typed BUSY frame the
//    edge treats as an immediate local-fallback signal. Every shed request
//    is answered — overload is never a silent hang.
//  * Deadline propagation. The edge stamps its remaining budget into the
//    frame header; the gateway computes an absolute deadline on arrival and
//    drops already-expired work (typed EXPIRED response) before wasting
//    compute on an answer nobody is waiting for. Expired work is NOT cached
//    as completed, so a retry with a fresh budget re-executes legitimately.
//  * Per-session state: inflight caps (one stalled session cannot occupy
//    the whole queue), a CircuitBreaker over handler failures (a session
//    whose requests keep throwing is answered BUSY until a probe succeeds),
//    and duplicate detection — requests are keyed by (session id, sequence);
//    a retry racing the still-executing original re-points the reply to the
//    new connection instead of executing twice, and a retry of a completed
//    request is answered from the per-session response cache.
//  * Idle-session reaping and graceful drain on stop(): stop accepting,
//    finish (or shed, after the drain budget) queued work, then close.
//
// Everything is observable under cadmc.gateway.*: accepted, shed, expired,
// duplicates, completed, errors, inflight/sessions/queue-depth gauges and a
// queue-wait histogram.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/fault.h"
#include "runtime/transport.h"

namespace cadmc::runtime {

/// One admitted request as the handler sees it.
struct GatewayRequest {
  Blob payload;
  std::uint64_t session_id = 0;  // 0 = anonymous (no session state)
  std::uint64_t sequence = 0;
  double budget_ms = 0.0;  // remaining deadline budget at send time; 0 = none
};

using GatewayHandler = std::function<Blob(const GatewayRequest&)>;

/// Point-in-time view of one session's gateway-side state.
struct GatewaySessionStats {
  std::uint64_t session_id = 0;
  int inflight = 0;                // admitted, not yet answered
  bool breaker_open = false;
  int consecutive_failures = 0;
  bool has_cached_response = false;
  double idle_ms = 0.0;            // since the session's last frame
};

/// Live introspection snapshot (Gateway::stats()). The counters are
/// always-on relaxed atomics, independent of obs::enabled(), so an operator
/// can inspect a production gateway that runs with metrics off.
struct GatewayStats {
  bool running = false;
  bool draining = false;
  std::size_t queue_depth = 0;
  int executing = 0;               // requests currently inside the handler
  std::size_t connections = 0;
  std::uint64_t accepted = 0;         // connections accepted
  std::uint64_t accept_overflow = 0;  // connections shed at the door
  std::uint64_t admitted = 0;         // requests enqueued
  std::uint64_t shed = 0;             // BUSY answers (any cause)
  std::uint64_t expired = 0;          // EXPIRED answers
  std::uint64_t duplicates = 0;       // retries short-circuited
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::vector<GatewaySessionStats> sessions;  // sorted by session id
};

struct GatewayConfig {
  int worker_threads = 2;
  int listen_backlog = 64;
  int max_connections = 512;      // beyond this, accepts are counted + closed
  std::size_t max_queue = 64;     // admission-queue bound
  int max_inflight_per_session = 4;
  double idle_session_ms = 30'000.0;  // reap session state after this idle
  double drain_ms = 1'000.0;          // graceful-drain budget in stop()
};

class Gateway {
 public:
  explicit Gateway(GatewayHandler handler, GatewayConfig config = {});
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Binds 127.0.0.1, starts the reactor and worker pool, and returns the
  /// port. A restarted gateway re-binds its previous port when possible
  /// (ephemeral fallback), so reconnecting sessions find it again without
  /// rediscovery. Throws std::runtime_error on socket failure.
  std::uint16_t start();

  /// Graceful drain: stop accepting, wait up to config.drain_ms for queued
  /// work to finish, shed the rest with BUSY responses, then join the
  /// workers and close every connection. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  /// Live (un-reaped) session-state entries — for tests and gauges.
  std::size_t session_count() const;

  /// Snapshot of the gateway's live state: queue depth, executing count,
  /// lifetime counters and per-session inflight/breaker/cache state.
  /// Thread-safe; callable at any time, including while stopped.
  GatewayStats stats() const;

 private:
  struct Connection;
  struct Session;
  struct Work;

  void reactor();
  void worker_loop();
  void on_readable(const std::shared_ptr<Connection>& conn);
  /// Reactor-side: deregister from epoll, mark dead, drop the map entry.
  /// The fd closes when the last worker reference goes away.
  void drop_connection(const std::shared_ptr<Connection>& conn);
  void reap_idle_sessions();
  /// Admission control; called with the gateway lock NOT held.
  void admit(const std::shared_ptr<Connection>& conn, Blob payload,
             const TraceContext& trace, const FrameMeta& meta);
  void respond(const std::shared_ptr<Connection>& conn, FrameKind kind,
               const Blob& payload, std::uint64_t session_id,
               std::uint64_t sequence);
  /// Sheds expired queue entries back-to-front. Requires lock held; returns
  /// the shed work items for the caller to answer outside the lock.
  std::vector<Work> shed_expired_locked(double now_ms);
  void update_gauges_locked();

  GatewayHandler handler_;
  GatewayConfig config_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::thread reactor_thread_;
  std::vector<std::thread> workers_;

  // One lock covers the queue, the session table, and the connection map:
  // admission, completion, dedup and reaping all mutate overlapping state,
  // and the handler itself always runs outside the lock.
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;     // queue non-empty or stopping
  std::condition_variable drained_cv_;  // queue emptied (for stop())
  bool stop_workers_ = false;
  std::deque<Work> queue_;
  std::map<std::uint64_t, Session> sessions_;
  std::map<int, std::shared_ptr<Connection>> connections_;
  int executing_ = 0;  // requests currently inside the handler

  // Lifetime counters behind stats() — always on (relaxed increments are
  // nearly free), unlike the cadmc.gateway.* metrics which obs::enabled()
  // gates.
  std::atomic<std::uint64_t> n_accepted_{0};
  std::atomic<std::uint64_t> n_accept_overflow_{0};
  std::atomic<std::uint64_t> n_admitted_{0};
  std::atomic<std::uint64_t> n_shed_{0};
  std::atomic<std::uint64_t> n_expired_{0};
  std::atomic<std::uint64_t> n_duplicates_{0};
  std::atomic<std::uint64_t> n_completed_{0};
  std::atomic<std::uint64_t> n_errors_{0};
};

}  // namespace cadmc::runtime
