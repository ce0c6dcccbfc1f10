#include "runtime/gateway.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/span.h"
#include "obs/trace_export.h"

namespace cadmc::runtime {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

/// One accepted socket. The fd is closed only in the destructor — workers
/// may still hold a reply reference after the reactor dropped the
/// connection, and closing early would let the kernel recycle the fd number
/// under them (a write to a stranger's socket). `dead` makes late replies
/// cheap no-ops; `write_mutex` serializes reactor-free response writes from
/// concurrent workers.
struct Gateway::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd;
  Blob rx;  // unparsed bytes received so far
  std::mutex write_mutex;
  std::atomic<bool> dead{false};
};

/// Per-session gateway state (keyed by FrameMeta::session_id != 0).
struct Gateway::Session {
  double last_active_ms = 0.0;
  // Duplicate short-circuit: the reply target of each inflight sequence
  // (a retry re-points it at the new connection), plus the last completed
  // response so a retry that lost the original reply is served from cache.
  std::map<std::uint64_t, std::shared_ptr<Connection>> inflight;
  std::uint64_t cached_sequence = 0;
  bool has_cached = false;
  FrameKind cached_kind = FrameKind::kResponse;
  Blob cached_payload;
  CircuitBreaker breaker;
};

/// One admitted, not-yet-executed request.
struct Gateway::Work {
  Blob payload;
  TraceContext trace;
  std::uint64_t session_id = 0;
  std::uint64_t sequence = 0;
  double budget_ms = 0.0;
  double deadline_abs_ms = std::numeric_limits<double>::infinity();
  double enqueue_ms = 0.0;
  double recv_obs_ms = 0.0;  // obs::steady_now_ms() at admission — anchors
                             // the gateway_queue span and the remote clock
                             // offset at receive time, not execution time
  // Reply target for anonymous requests; session requests resolve the live
  // target through Session::inflight at completion (it may have been
  // re-pointed by a duplicate), falling back to this one.
  std::shared_ptr<Connection> conn;
};

Gateway::Gateway(GatewayHandler handler, GatewayConfig config)
    : handler_(std::move(handler)), config_(config) {
  if (config_.worker_threads < 1) config_.worker_threads = 1;
  if (config_.max_queue < 1) config_.max_queue = 1;
  if (config_.max_inflight_per_session < 1) config_.max_inflight_per_session = 1;
}

Gateway::~Gateway() { stop(); }

std::size_t Gateway::session_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

GatewayStats Gateway::stats() const {
  GatewayStats s;
  s.running = running_.load(std::memory_order_acquire);
  s.draining = draining_.load(std::memory_order_acquire);
  s.accepted = n_accepted_.load(std::memory_order_relaxed);
  s.accept_overflow = n_accept_overflow_.load(std::memory_order_relaxed);
  s.admitted = n_admitted_.load(std::memory_order_relaxed);
  s.shed = n_shed_.load(std::memory_order_relaxed);
  s.expired = n_expired_.load(std::memory_order_relaxed);
  s.duplicates = n_duplicates_.load(std::memory_order_relaxed);
  s.completed = n_completed_.load(std::memory_order_relaxed);
  s.errors = n_errors_.load(std::memory_order_relaxed);
  const double now = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  s.queue_depth = queue_.size();
  s.executing = executing_;
  s.connections = connections_.size();
  s.sessions.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    GatewaySessionStats gs;
    gs.session_id = id;
    gs.inflight = static_cast<int>(session.inflight.size());
    gs.breaker_open = session.breaker.state() == CircuitBreaker::State::kOpen;
    gs.consecutive_failures = session.breaker.consecutive_failures();
    gs.has_cached_response = session.has_cached;
    gs.idle_ms = now - session.last_active_ms;
    s.sessions.push_back(gs);
  }
  return s;
}

std::uint16_t Gateway::start() {
  if (running_.load(std::memory_order_acquire)) return port_;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("Gateway: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // A restarted gateway tries its previous port first so sessions that
  // cached the address reconnect without rediscovery; fall back to an
  // ephemeral port if something claimed it in the meantime.
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("Gateway: bind() failed");
    }
  }
  if (::listen(listen_fd_, config_.listen_backlog) != 0 ||
      !set_nonblocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Gateway: listen() failed");
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Gateway: epoll_create1() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_workers_ = false;
  }
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (int i = 0; i < config_.worker_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  reactor_thread_ = std::thread([this] { reactor(); });
  return port_;
}

void Gateway::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Phase 1: drain. The reactor notices running_ == false within one poll
  // tick and stops accepting/reading; workers keep consuming the queue.
  draining_.store(true, std::memory_order_release);
  struct Pending {
    std::shared_ptr<Connection> conn;
    FrameKind kind;
    Blob payload;
    std::uint64_t session_id;
    std::uint64_t sequence;
  };
  std::vector<Pending> replies;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    drained_cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(config_.drain_ms),
        [this] { return queue_.empty() && executing_ == 0; });
    // Phase 2: the drain budget is spent — shed what is left with BUSY so no
    // client is left hanging on a request the gateway will never run.
    for (Work& w : queue_) {
      std::shared_ptr<Connection> target = std::move(w.conn);
      auto session = sessions_.find(w.session_id);
      if (session != sessions_.end()) {
        auto inflight = session->second.inflight.find(w.sequence);
        if (inflight != session->second.inflight.end()) {
          if (inflight->second != nullptr) target = inflight->second;
          session->second.inflight.erase(inflight);
        }
      }
      n_shed_.fetch_add(1, std::memory_order_relaxed);
      obs::count("cadmc.gateway.shed");
      replies.push_back(
          {std::move(target), FrameKind::kBusy, {}, w.session_id, w.sequence});
    }
    queue_.clear();
    stop_workers_ = true;
    update_gauges_locked();
  }
  work_cv_.notify_all();
  for (Pending& r : replies)
    respond(r.conn, r.kind, r.payload, r.session_id, r.sequence);
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
  if (reactor_thread_.joinable()) reactor_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [fd, conn] : connections_)
      conn->dead.store(true, std::memory_order_release);
    connections_.clear();  // destructors close the fds
    sessions_.clear();
    update_gauges_locked();
  }
  draining_.store(false, std::memory_order_release);
}

void Gateway::reactor() {
  std::array<epoll_event, 64> events;
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (!running_.load(std::memory_order_acquire)) break;
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        // Accept everything the backlog delivered this tick.
        for (;;) {
          const int client = ::accept(listen_fd_, nullptr, nullptr);
          if (client < 0) {
            if (errno == EINTR) continue;
            break;  // EAGAIN (drained) or a transient error
          }
          bool over_capacity;
          {
            std::lock_guard<std::mutex> lock(mutex_);
            over_capacity = static_cast<int>(connections_.size()) >=
                            config_.max_connections;
          }
          if (over_capacity || !set_nonblocking(client)) {
            // Out of connection budget: shed at the door, visibly. (The
            // kernel-level variant of this — SYN-queue overflow on the old
            // backlog-4 listener — was invisible; this one is counted.)
            n_accept_overflow_.fetch_add(1, std::memory_order_relaxed);
            obs::count("cadmc.gateway.accept_overflow");
            ::close(client);
            continue;
          }
          auto conn = std::make_shared<Connection>(client);
          epoll_event cev{};
          cev.events = EPOLLIN | EPOLLRDHUP;
          cev.data.fd = client;
          if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &cev) != 0)
            continue;  // conn destructor closes the fd
          {
            std::lock_guard<std::mutex> lock(mutex_);
            connections_[client] = std::move(conn);
          }
          n_accepted_.fetch_add(1, std::memory_order_relaxed);
          obs::count("cadmc.gateway.accepted");
        }
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = connections_.find(fd);
        if (it != connections_.end()) conn = it->second;
      }
      if (conn == nullptr) continue;  // already dropped this tick
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        drop_connection(conn);
        continue;
      }
      on_readable(conn);
    }
    reap_idle_sessions();
  }
  ::close(epoll_fd_);
  epoll_fd_ = -1;
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Gateway::drop_connection(const std::shared_ptr<Connection>& conn) {
  conn->dead.store(true, std::memory_order_release);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::shutdown(conn->fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(mutex_);
  connections_.erase(conn->fd);  // fd closes once the last worker ref drops
}

void Gateway::on_readable(const std::shared_ptr<Connection>& conn) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {  // peer closed or hard error
      drop_connection(conn);
      return;
    }
    conn->rx.insert(conn->rx.end(), buf, buf + n);
    if (static_cast<std::size_t>(n) < sizeof(buf)) break;
  }
  // Peel off every complete frame the buffer now holds. parse_frame never
  // over-reads and flags poisoned framing (bad length / payload CRC) as
  // kBad, at which point the stream is untrustworthy and the connection is
  // dropped — the client's own checksum/retry machinery takes it from there.
  std::size_t offset = 0;
  for (;;) {
    Blob payload;
    TraceContext trace;
    FrameMeta meta;
    std::size_t consumed = 0;
    const ParseResult result = parse_frame(
        conn->rx.data() + offset, conn->rx.size() - offset, &consumed, payload,
        &trace, &meta);
    if (result == ParseResult::kBad) {
      drop_connection(conn);
      return;
    }
    if (result == ParseResult::kNeedMore) break;
    offset += consumed;
    admit(conn, std::move(payload), trace, meta);
  }
  if (offset > 0)
    conn->rx.erase(conn->rx.begin(),
                   conn->rx.begin() + static_cast<std::ptrdiff_t>(offset));
}

void Gateway::admit(const std::shared_ptr<Connection>& conn, Blob payload,
                    const TraceContext& trace, const FrameMeta& meta) {
  const double now = now_ms();
  const double recv_obs = obs::steady_now_ms();
  FrameKind reject = FrameKind::kRequest;  // kRequest = admitted
  const char* shed_cause = nullptr;
  Blob cached;
  bool reply_cached = false;
  std::vector<Work> expired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Session* session = nullptr;
    if (meta.session_id != 0) {
      session = &sessions_.try_emplace(meta.session_id)
                     .first->second;
      session->last_active_ms = now;
    }
    // Duplicate short-circuit: the same (session, sequence) is a retry of a
    // call we already have. Inflight → re-point the reply at the retry's
    // connection (the original's is usually dead); completed → answer from
    // the cache. Either way the handler does NOT run twice.
    if (session != nullptr && meta.sequence != 0) {
      auto inflight = session->inflight.find(meta.sequence);
      if (inflight != session->inflight.end()) {
        inflight->second = conn;
        n_duplicates_.fetch_add(1, std::memory_order_relaxed);
        obs::count("cadmc.gateway.duplicates");
        return;
      }
      if (session->has_cached && session->cached_sequence == meta.sequence) {
        reply_cached = true;
        reject = session->cached_kind;
        cached = session->cached_payload;
        n_duplicates_.fetch_add(1, std::memory_order_relaxed);
        obs::count("cadmc.gateway.duplicates");
      }
    }
    if (!reply_cached) {
      if (draining_.load(std::memory_order_acquire) || stop_workers_) {
        reject = FrameKind::kBusy;
        shed_cause = "shed_draining";
      } else if (session != nullptr && !session->breaker.allow_request()) {
        // This session's handler calls keep failing; shed until a probe
        // gets through and succeeds.
        reject = FrameKind::kBusy;
        shed_cause = "shed_breaker";
      } else if (session != nullptr &&
                 static_cast<int>(session->inflight.size()) >=
                     config_.max_inflight_per_session) {
        reject = FrameKind::kBusy;  // one stalled session can't own the queue
        shed_cause = "shed_inflight_cap";
      } else if (queue_.size() >= config_.max_queue) {
        // Full: make room by shedding already-expired entries back-to-front
        // (the newest queued work is the least likely to make its deadline).
        expired = shed_expired_locked(now);
        if (queue_.size() >= config_.max_queue) {
          reject = FrameKind::kBusy;
          shed_cause = "shed_queue_full";
        }
      }
    }
    if (reject == FrameKind::kRequest) {
      Work w;
      w.payload = std::move(payload);
      w.trace = trace;
      w.session_id = meta.session_id;
      w.sequence = meta.sequence;
      w.budget_ms = meta.deadline_ms;
      if (meta.deadline_ms > 0.0) w.deadline_abs_ms = now + meta.deadline_ms;
      w.enqueue_ms = now;
      w.recv_obs_ms = recv_obs;
      w.conn = conn;
      if (session != nullptr && meta.sequence != 0)
        session->inflight[meta.sequence] = conn;
      queue_.push_back(std::move(w));
      n_admitted_.fetch_add(1, std::memory_order_relaxed);
      update_gauges_locked();
    } else if (reject == FrameKind::kBusy) {
      n_shed_.fetch_add(1, std::memory_order_relaxed);
      obs::count("cadmc.gateway.shed");
    }
  }
  if (shed_cause != nullptr && obs::flight_recording()) {
    // A flight dump after a BUSY storm must say *why* requests were shed.
    // Queue-full is the storm signature worth a postmortem dump (rate
    // limited); the targeted sheds are point events with the caller's trace
    // linkage so the refused request is identifiable.
    if (std::strcmp(shed_cause, "shed_queue_full") == 0) {
      obs::flight_fault(obs::FlightEventKind::kQueue, shed_cause);
    } else {
      obs::FlightRecorder::global().record(obs::FlightEventKind::kQueue,
                                           shed_cause, trace.trace_id, 0,
                                           trace.span_id, recv_obs, 0.0);
    }
  }
  for (const Work& w : expired)
    respond(w.conn, FrameKind::kExpired, {}, w.session_id, w.sequence);
  if (reject == FrameKind::kRequest) {
    work_cv_.notify_one();
    return;
  }
  respond(conn, reject, cached, meta.session_id, meta.sequence);
}

std::vector<Gateway::Work> Gateway::shed_expired_locked(double now) {
  std::vector<Work> shed;
  for (auto it = queue_.rbegin(); it != queue_.rend();) {
    if (now > it->deadline_abs_ms) {
      shed.push_back(std::move(*it));
      it = std::make_reverse_iterator(
          queue_.erase(std::next(it).base()));
    } else {
      ++it;
    }
  }
  // Resolve each shed entry's live reply target here (under the lock) so
  // the caller can answer EXPIRED outside it.
  for (Work& w : shed) {
    std::shared_ptr<Connection> target = std::move(w.conn);
    auto session = sessions_.find(w.session_id);
    if (session != sessions_.end()) {
      auto inflight = session->second.inflight.find(w.sequence);
      if (inflight != session->second.inflight.end()) {
        if (inflight->second != nullptr) target = inflight->second;
        session->second.inflight.erase(inflight);
      }
    }
    n_expired_.fetch_add(1, std::memory_order_relaxed);
    obs::count("cadmc.gateway.expired");
    w.conn = std::move(target);
  }
  if (!shed.empty()) update_gauges_locked();
  return shed;
}

void Gateway::reap_idle_sessions() {
  const double now = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    // Never reap a session with inflight work — its dedup state is exactly
    // what prevents a duplicate execution of those requests.
    if (it->second.inflight.empty() &&
        now - it->second.last_active_ms > config_.idle_session_ms) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  update_gauges_locked();
}

void Gateway::worker_loop() {
  for (;;) {
    Work w;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_workers_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      w = std::move(queue_.front());
      queue_.pop_front();
      const double now = now_ms();
      if (now > w.deadline_abs_ms) {
        // The budget died while queued. Answer EXPIRED and do NOT cache it
        // as completed — the handler never ran, so a retry with a fresh
        // budget is a legitimate re-execution, not a duplicate.
        std::shared_ptr<Connection> target = std::move(w.conn);
        auto session = sessions_.find(w.session_id);
        if (session != sessions_.end()) {
          auto inflight = session->second.inflight.find(w.sequence);
          if (inflight != session->second.inflight.end()) {
            if (inflight->second != nullptr) target = inflight->second;
            session->second.inflight.erase(inflight);
          }
        }
        n_expired_.fetch_add(1, std::memory_order_relaxed);
        obs::count("cadmc.gateway.expired");
        update_gauges_locked();
        if (queue_.empty() && executing_ == 0) drained_cv_.notify_all();
        lock.unlock();
        respond(target, FrameKind::kExpired, {}, w.session_id, w.sequence);
        continue;
      }
      ++executing_;
      obs::observe("cadmc.gateway.queue_ms", now - w.enqueue_ms);
      update_gauges_locked();
    }
    // The remote clock offset is anchored at *receive* time, so the queue
    // wait lands inside the sender's timeline instead of being silently
    // absorbed: gateway_queue ends exactly where transport_serve begins and
    // the reactor→queue→worker handoff shows up on the critical path.
    const double clock_offset =
        w.trace.trace_id != 0 ? w.trace.clock_ms - w.recv_obs_ms : 0.0;
    if (w.trace.trace_id != 0) {
      const double wait_obs_ms = obs::steady_now_ms() - w.recv_obs_ms;
      obs::record_external_span("gateway_queue", w.trace.trace_id,
                                w.trace.span_id, w.trace.clock_ms, wait_obs_ms,
                                /*depth=*/0, obs::FlightEventKind::kQueue);
    }
    Blob out;
    bool ok = true;
    {
      // Join the sender's trace: spans the handler opens are parented under
      // the edge's transport_call span, time-shifted into its clock.
      obs::RemoteSpanScope remote(obs::RemoteContext{
          w.trace.trace_id, w.trace.span_id, clock_offset});
      CADMC_SPAN("transport_serve");
      try {
        out = handler_(
            GatewayRequest{std::move(w.payload), w.session_id, w.sequence,
                           w.budget_ms});
      } catch (...) {
        ok = false;
      }
    }
    std::shared_ptr<Connection> target;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --executing_;
      target = std::move(w.conn);
      auto session = sessions_.find(w.session_id);
      if (session != sessions_.end()) {
        Session& s = session->second;
        s.last_active_ms = now_ms();
        ok ? s.breaker.record_success() : s.breaker.record_failure();
        auto inflight = s.inflight.find(w.sequence);
        if (inflight != s.inflight.end()) {
          if (inflight->second != nullptr) target = inflight->second;
          s.inflight.erase(inflight);
        }
        if (w.sequence != 0) {
          s.cached_sequence = w.sequence;
          s.has_cached = true;
          s.cached_kind = ok ? FrameKind::kResponse : FrameKind::kError;
          s.cached_payload = ok ? out : Blob{};
        }
      }
      (ok ? n_completed_ : n_errors_).fetch_add(1, std::memory_order_relaxed);
      obs::count(ok ? "cadmc.gateway.completed" : "cadmc.gateway.errors");
      update_gauges_locked();
      if (queue_.empty() && executing_ == 0) drained_cv_.notify_all();
    }
    respond(target, ok ? FrameKind::kResponse : FrameKind::kError,
            ok ? out : Blob{}, w.session_id, w.sequence);
  }
}

void Gateway::respond(const std::shared_ptr<Connection>& conn, FrameKind kind,
                      const Blob& payload, std::uint64_t session_id,
                      std::uint64_t sequence) {
  if (conn == nullptr || conn->dead.load(std::memory_order_acquire)) return;
  FrameMeta meta;
  meta.session_id = session_id;
  meta.sequence = sequence;
  meta.kind = kind;
  const Blob frame = encode_frame(payload, {}, meta);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  const std::uint8_t* data = frame.data();
  std::size_t len = frame.size();
  int stalls = 0;
  while (len > 0) {
    const ssize_t n = ::send(conn->fd, data, len, MSG_NOSIGNAL);
    if (n > 0) {
      data += n;
      len -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The socket buffer is full (a slow or stalled reader). Wait briefly
      // for drainage, but bound it: a worker must not be parked forever
      // behind one dead-but-not-closed peer.
      if (++stalls > 40) break;  // ~2 s total
      pollfd pfd{conn->fd, POLLOUT, 0};
      ::poll(&pfd, 1, 50);
      continue;
    }
    break;  // peer gone; the reactor will reap the connection
  }
  if (len > 0) conn->dead.store(true, std::memory_order_release);
}

void Gateway::update_gauges_locked() {
  obs::set_gauge("cadmc.gateway.queue_depth",
                 static_cast<double>(queue_.size()));
  obs::set_gauge("cadmc.gateway.inflight",
                 static_cast<double>(queue_.size()) + executing_);
  obs::set_gauge("cadmc.gateway.sessions",
                 static_cast<double>(sessions_.size()));
}

}  // namespace cadmc::runtime
