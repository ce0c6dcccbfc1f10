// Loopback TCP transport: length-prefixed, CRC32-checksummed binary messages
// between the edge process (client) and the cloud gateway (see
// runtime/gateway.h for the serving side). Used by the field demo to move
// real feature tensors through a real socket.
//
// Fault tolerance: the client supports per-call deadlines (SO_RCVTIMEO /
// SO_SNDTIMEO), bounded retry with decorrelated-jitter backoff, and
// transparent reconnect. Frames that fail the checksum are rejected and the
// connection is dropped (stream framing can no longer be trusted). An
// optional FaultInjector perturbs outgoing frames for chaos testing.
//
// Distributed tracing: every request frame carries a TraceContext (trace id,
// parent span id, sender clock) in its header; the server installs it as the
// remote parent for the handler's spans, so one inference yields a single
// causal span tree across the edge/cloud partition boundary.
//
// Request metadata: frames additionally carry a FrameMeta section — the
// sender's session id, a per-call sequence number (stable across retries, so
// the gateway can short-circuit duplicate executions), the remaining
// deadline budget, and — on responses — a typed kind so overload shedding
// (BUSY) and deadline drops (EXPIRED) are explicit signals instead of
// silent hangs.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace cadmc::runtime {

class FaultInjector;

using Blob = std::vector<std::uint8_t>;

/// Thrown by TcpClient::call after deadlines/retries are exhausted.
struct TransportError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Typed BUSY response from the gateway: it is shedding load and this
/// request was rejected at admission. The edge must treat this as an
/// immediate local-fallback signal — retrying feeds the overload.
struct GatewayBusyError : TransportError {
  using TransportError::TransportError;
};

/// Response frame kinds (FrameMeta::kind). Requests are kRequest; every
/// admitted or rejected request is answered with exactly one typed response
/// — overload shedding is never a silent hang.
enum class FrameKind : std::uint32_t {
  kRequest = 0,
  kResponse = 1,  // handler output in the payload
  kBusy = 2,      // shed at admission (queue full, inflight cap, draining)
  kExpired = 3,   // deadline budget exhausted before the handler ran
  kError = 4,     // handler threw; payload empty
};

/// Request/response metadata carried in every frame header, guarded by its
/// own CRC (a corrupt section degrades to "anonymous request", it never
/// costs the frame). session_id == 0 means anonymous: no dedup, no
/// per-session state on the gateway.
struct FrameMeta {
  std::uint64_t session_id = 0;
  std::uint64_t sequence = 0;   // per-call, stable across retries
  double deadline_ms = 0.0;     // request: remaining budget; 0 = unbounded
  FrameKind kind = FrameKind::kRequest;
};

struct TcpClientConfig {
  double timeout_ms = 0.0;      // send/recv deadline per syscall; 0 = blocking
  int max_retries = 0;          // extra attempts after the first failed call
  double backoff_ms = 10.0;     // base retry backoff (decorrelated jitter)
  double backoff_max_ms = 500.0;
  std::uint64_t session_id = 0;    // stamped into every request frame
  double deadline_budget_ms = -1.0;  // budget stamped on requests;
                                     // < 0 = use timeout_ms
};

/// Decorrelated-jitter backoff (Exponential Backoff And Jitter, AWS
/// Architecture Blog): sleep ~ U[base, prev * 3], capped. Unlike doubled
/// fixed backoff, N clients that fail together do NOT retry together, so a
/// recovering gateway sees a spread of retries instead of a synchronized
/// storm. Pure function of the rng stream — exposed for tests.
double next_decorrelated_backoff_ms(util::Rng& rng, double prev_ms,
                                    double base_ms, double cap_ms);

class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient();
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Connects to 127.0.0.1:port. Throws std::runtime_error on failure.
  /// The config's deadline is applied to every subsequent send/recv.
  void connect(std::uint16_t port, TcpClientConfig config = {});
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Chaos hook: outgoing request frames consult `injector` (may be null)
  /// for drop/corrupt/truncate decisions. Not owned; must outlive the client.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Sends one request and blocks for the response. Retries (with
  /// decorrelated-jitter backoff and reconnect) up to config.max_retries
  /// times on deadline misses, checksum rejections, EXPIRED responses, or
  /// connection loss; throws TransportError once attempts are exhausted.
  /// A typed BUSY response throws GatewayBusyError immediately (no retry:
  /// the gateway is load-shedding and the edge should fall back locally).
  /// Every attempt of one call carries the same sequence number, so the
  /// gateway can detect a resend racing its own execution of the original.
  Blob call(const Blob& request);

 private:
  bool reconnect();
  bool send_request(const Blob& request, std::uint64_t sequence,
                    std::string& error);

  int fd_ = -1;
  std::uint16_t port_ = 0;
  TcpClientConfig config_;
  FaultInjector* injector_ = nullptr;
  std::uint64_t next_sequence_ = 0;
  util::Rng jitter_rng_{0x1077E4};
};

/// Trace context carried in every frame header so the receiving process can
/// parent its spans under the sender's request span (obs::RemoteSpanScope)
/// and align clocks. trace_id == 0 means "no context" — the receiver starts
/// a fresh root trace.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;   // sender's innermost live span
  double clock_ms = 0.0;       // sender's obs::steady_now_ms() at encode time
};

/// Frame header layout (exposed for tests). Wire format, little-endian
/// regardless of host byte order:
///   [0..7]   payload length (u64 LE)
///   [8..11]  CRC32 (IEEE) of the payload (u32 LE)
///   [12..19] trace_id (u64 LE)
///   [20..27] parent span_id (u64 LE)
///   [28..35] sender steady-clock ms (f64 bit pattern as u64 LE)
///   [36..39] CRC32 of bytes [12..35] (u32 LE) — guards the trace section
///            independently of the payload, so a corrupt context degrades to
///            a fresh root trace without losing the frame
///   [40..47] session id (u64 LE)
///   [48..55] sequence (u64 LE)
///   [56..63] deadline budget ms (f64 bit pattern as u64 LE)
///   [64..67] frame kind (u32 LE)
///   [68..71] CRC32 of bytes [40..67] (u32 LE) — guards the meta section;
///            a corrupt section degrades to an anonymous request
///   [72..]   payload
constexpr std::size_t kFrameTraceOffset = 12;
constexpr std::size_t kFrameTraceBytes = 24;
constexpr std::size_t kFrameMetaOffset = kFrameTraceOffset + kFrameTraceBytes + 4;
constexpr std::size_t kFrameMetaBytes = 28;
constexpr std::size_t kFrameHeaderBytes = kFrameMetaOffset + kFrameMetaBytes + 4;

/// Encodes header + payload into one contiguous buffer (what write_frame
/// sends; the gateway uses it to write through nonblocking fds).
Blob encode_frame(const Blob& payload, const TraceContext& trace = {},
                  const FrameMeta& meta = {});

bool write_frame(int fd, const Blob& payload, const TraceContext& trace = {},
                 const FrameMeta& meta = {});
/// Returns false on short read, oversized frame, or payload checksum
/// mismatch (the caller must drop the connection — framing is no longer
/// trustworthy). A trace/meta section that fails its own checksum clears
/// `trace`/`meta` (fresh root / anonymous request) but keeps the frame.
bool read_frame(int fd, Blob& payload, TraceContext* trace = nullptr,
                FrameMeta* meta = nullptr);

/// Incremental, buffer-based frame parser (what read_frame and the gateway
/// reactor are built on; directly fuzzable — it must never over-read past
/// `len`, never throw, and at worst reject the frame).
enum class ParseResult {
  kNeedMore,  // not enough bytes yet; *consumed == 0
  kFrame,     // one complete frame extracted; *consumed = its full size
  kBad,       // oversized length or payload CRC mismatch — the caller must
              // drop the connection (stream framing is poisoned)
};
ParseResult parse_frame(const std::uint8_t* data, std::size_t len,
                        std::size_t* consumed, Blob& payload,
                        TraceContext* trace = nullptr,
                        FrameMeta* meta = nullptr,
                        std::size_t max_payload = std::size_t{1} << 31);

/// IEEE 802.3 CRC32 (the zlib polynomial), exposed for tests.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

}  // namespace cadmc::runtime
