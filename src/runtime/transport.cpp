#include "runtime/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "runtime/fault.h"

namespace cadmc::runtime {

namespace {

constexpr std::size_t kLengthBytes = 8;
constexpr std::size_t kCrcBytes = 4;
constexpr std::size_t kHeaderBytes = kFrameHeaderBytes;
static_assert(kFrameTraceOffset == kLengthBytes + kCrcBytes);
static_assert(kFrameMetaOffset == kFrameTraceOffset + kFrameTraceBytes + kCrcBytes);
static_assert(kFrameHeaderBytes == kFrameMetaOffset + kFrameMetaBytes + kCrcBytes);

// Byte-wise little-endian codec — the wire format is LE on every host.
void store_le(std::uint8_t* out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}

std::uint64_t load_le(const std::uint8_t* in, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // interrupted, not dead
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n < 0 && errno == EINTR) continue;  // interrupted, not dead
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void set_socket_deadline(int fd, double timeout_ms) {
  if (timeout_ms <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_ms - 1000.0 * static_cast<double>(tv.tv_sec)) * 1000.0);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1000;  // sub-ms floor
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

/// Whole frame (header + payload) in one buffer so a single send covers it,
/// fault hooks can mutate specific bytes before it hits the wire, and the
/// gateway can push it through a nonblocking fd.
Blob encode_frame(const Blob& payload, const TraceContext& trace,
                  const FrameMeta& meta) {
  Blob frame(kHeaderBytes + payload.size());
  store_le(frame.data(), payload.size(), kLengthBytes);
  store_le(frame.data() + kLengthBytes, crc32(payload.data(), payload.size()),
           kCrcBytes);
  std::uint8_t* t = frame.data() + kFrameTraceOffset;
  store_le(t, trace.trace_id, 8);
  store_le(t + 8, trace.span_id, 8);
  store_le(t + 16, double_bits(trace.clock_ms), 8);
  store_le(t + kFrameTraceBytes, crc32(t, kFrameTraceBytes), kCrcBytes);
  std::uint8_t* m = frame.data() + kFrameMetaOffset;
  store_le(m, meta.session_id, 8);
  store_le(m + 8, meta.sequence, 8);
  store_le(m + 16, double_bits(meta.deadline_ms), 8);
  store_le(m + 24, static_cast<std::uint32_t>(meta.kind), 4);
  store_le(m + kFrameMetaBytes, crc32(m, kFrameMetaBytes), kCrcBytes);
  std::copy(payload.begin(), payload.end(), frame.begin() + kHeaderBytes);
  return frame;
}

namespace {

/// Decodes the fixed header (caller guarantees kHeaderBytes available).
/// Trace/meta sections each degrade independently on CRC mismatch.
void decode_header_sections(const std::uint8_t* header, TraceContext* trace,
                            FrameMeta* meta) {
  const std::uint8_t* t = header + kFrameTraceOffset;
  if (trace != nullptr &&
      static_cast<std::uint32_t>(load_le(t + kFrameTraceBytes, kCrcBytes)) ==
          crc32(t, kFrameTraceBytes)) {
    trace->trace_id = load_le(t, 8);
    trace->span_id = load_le(t + 8, 8);
    trace->clock_ms = bits_double(load_le(t + 16, 8));
  }
  const std::uint8_t* m = header + kFrameMetaOffset;
  if (meta != nullptr &&
      static_cast<std::uint32_t>(load_le(m + kFrameMetaBytes, kCrcBytes)) ==
          crc32(m, kFrameMetaBytes)) {
    meta->session_id = load_le(m, 8);
    meta->sequence = load_le(m + 8, 8);
    meta->deadline_ms = bits_double(load_le(m + 16, 8));
    const std::uint64_t kind = load_le(m + 24, 4);
    meta->kind = kind <= static_cast<std::uint64_t>(FrameKind::kError)
                     ? static_cast<FrameKind>(kind)
                     : FrameKind::kRequest;
  }
}

}  // namespace

ParseResult parse_frame(const std::uint8_t* data, std::size_t len,
                        std::size_t* consumed, Blob& payload,
                        TraceContext* trace, FrameMeta* meta,
                        std::size_t max_payload) {
  *consumed = 0;
  if (trace != nullptr) *trace = {};
  if (meta != nullptr) *meta = {};
  if (len < kHeaderBytes) return ParseResult::kNeedMore;
  const std::uint64_t size = load_le(data, kLengthBytes);
  if (size > max_payload) return ParseResult::kBad;  // oversized length field
  if (len < kHeaderBytes + size) return ParseResult::kNeedMore;
  const auto expected_crc =
      static_cast<std::uint32_t>(load_le(data + kLengthBytes, kCrcBytes));
  if (crc32(data + kHeaderBytes, size) != expected_crc) {
    obs::count("cadmc.runtime.fault.corrupt_rejected");
    return ParseResult::kBad;
  }
  decode_header_sections(data, trace, meta);
  payload.assign(data + kHeaderBytes, data + kHeaderBytes + size);
  *consumed = kHeaderBytes + static_cast<std::size_t>(size);
  return ParseResult::kFrame;
}

bool write_frame(int fd, const Blob& payload, const TraceContext& trace,
                 const FrameMeta& meta) {
  const Blob frame = encode_frame(payload, trace, meta);
  return write_all(fd, frame.data(), frame.size());
}

bool read_frame(int fd, Blob& payload, TraceContext* trace, FrameMeta* meta) {
  if (trace != nullptr) *trace = {};
  if (meta != nullptr) *meta = {};
  std::uint8_t header[kHeaderBytes];
  if (!read_all(fd, header, kHeaderBytes)) return false;
  const std::uint64_t size = load_le(header, kLengthBytes);
  const auto expected_crc =
      static_cast<std::uint32_t>(load_le(header + kLengthBytes, kCrcBytes));
  if (size > (1ULL << 31)) return false;  // sanity cap: 2 GiB frames
  // The trace/meta sections carry their own CRCs: a corrupt section must
  // degrade (fresh root trace / anonymous request), never cost the frame
  // (the payload has its own checksum).
  decode_header_sections(header, trace, meta);
  payload.resize(size);
  if (size > 0 && !read_all(fd, payload.data(), payload.size())) return false;
  if (crc32(payload.data(), payload.size()) != expected_crc) {
    obs::count("cadmc.runtime.fault.corrupt_rejected");
    return false;
  }
  return true;
}

double next_decorrelated_backoff_ms(util::Rng& rng, double prev_ms,
                                    double base_ms, double cap_ms) {
  if (base_ms <= 0.0) return 0.0;
  const double hi = std::max(base_ms, std::min(prev_ms * 3.0, cap_ms));
  return rng.uniform(base_ms, hi);
}

TcpClient::~TcpClient() { close(); }

void TcpClient::connect(std::uint16_t port, TcpClientConfig config) {
  close();
  port_ = port;
  config_ = config;
  // Deterministic per-client jitter stream derived from the session id, so
  // co-failing sessions de-synchronize.
  std::uint64_t seed = 0x9E3779B97F4A7C15ULL ^ (config.session_id + 1);
  jitter_rng_ = util::Rng(util::splitmix64(seed));
  if (!reconnect()) throw std::runtime_error("TcpClient: connect() failed");
}

bool TcpClient::reconnect() {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  set_socket_deadline(fd_, config_.timeout_ms);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

void TcpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool TcpClient::send_request(const Blob& request, std::uint64_t sequence,
                             std::string& error) {
  const FrameFault fault =
      injector_ != nullptr ? injector_->next_frame_fault() : FrameFault::kNone;
  if (fault == FrameFault::kDrop) {
    // The frame is lost in flight. With a deadline we wait for the response
    // that never comes (the timeout fires); without one, fail fast rather
    // than blocking forever.
    if (config_.timeout_ms <= 0.0) {
      error = "frame dropped";
      return false;
    }
    return true;
  }
  // Stamp the caller's trace context (innermost live span) into the header
  // so the server's spans join this request's causal tree.
  const obs::OutgoingContext ctx = obs::outgoing_context();
  FrameMeta meta;
  meta.session_id = config_.session_id;
  meta.sequence = sequence;
  meta.deadline_ms = config_.deadline_budget_ms >= 0.0
                         ? config_.deadline_budget_ms
                         : config_.timeout_ms;
  meta.kind = FrameKind::kRequest;
  Blob frame = encode_frame(
      request, TraceContext{ctx.trace_id, ctx.span_id, obs::steady_now_ms()},
      meta);
  if (fault == FrameFault::kCorrupt)
    frame[frame.size() > kHeaderBytes ? kHeaderBytes : kLengthBytes] ^= 0xFF;
  if (fault == FrameFault::kTruncate)
    frame.resize(std::max<std::size_t>(1, frame.size() / 2));
  if (!write_all(fd_, frame.data(), frame.size())) {
    error = "send failed";
    return false;
  }
  if (fault == FrameFault::kTruncate) {
    error = "frame truncated";
    return false;
  }
  return true;
}

Blob TcpClient::call(const Blob& request) {
  if (fd_ < 0 && port_ == 0)
    throw TransportError("TcpClient: not connected");
  CADMC_SPAN("transport_call");
  const std::uint64_t sequence = ++next_sequence_;
  const int attempts = 1 + std::max(0, config_.max_retries);
  double backoff = 0.0;
  std::string error = "no attempt made";
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      obs::count("cadmc.runtime.fault.retries");
      backoff = next_decorrelated_backoff_ms(jitter_rng_, backoff,
                                             config_.backoff_ms,
                                             config_.backoff_max_ms);
      if (backoff > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff));
    }
    if (fd_ < 0) {
      if (!reconnect()) {
        error = "reconnect failed";
        continue;
      }
      obs::count("cadmc.runtime.fault.reconnects");
    }
    if (!send_request(request, sequence, error)) {
      close();
      continue;
    }
    Blob response;
    FrameMeta meta;
    errno = 0;
    if (read_frame(fd_, response, nullptr, &meta)) {
      switch (meta.kind) {
        case FrameKind::kResponse:
          return response;
        case FrameKind::kBusy:
          // The gateway is shedding load: fall back locally NOW. Retrying
          // against an overloaded server only deepens the overload.
          obs::count("cadmc.runtime.fault.busy_rejected");
          obs::flight_fault(obs::FlightEventKind::kFault, "gateway_busy");
          throw GatewayBusyError("TcpClient::call: gateway busy (shed)");
        case FrameKind::kExpired:
          // Deadline budget died in the gateway queue; a retry carries a
          // fresh budget (the gateway did not execute, so no duplicate).
          obs::count("cadmc.runtime.fault.expired_rejected");
          error = "deadline expired in gateway queue";
          continue;
        case FrameKind::kError:
          obs::flight_fault(obs::FlightEventKind::kFault, "gateway_error");
          throw TransportError("TcpClient::call: cloud handler failed");
        case FrameKind::kRequest:
          break;  // protocol violation; fall through to the drop below
      }
      error = "unexpected frame kind";
      close();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      error = "deadline exceeded";
      obs::count("cadmc.runtime.fault.call_timeouts");
    } else {
      error = "connection lost or frame rejected";
    }
    close();
  }
  obs::flight_fault(obs::FlightEventKind::kFault, "transport_error");
  throw TransportError("TcpClient::call: " + error + " after " +
                       std::to_string(attempts) + " attempt(s)");
}

}  // namespace cadmc::runtime
