#include "runtime/shaper.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cadmc::runtime {

double shaped_transfer_ms(const net::BandwidthTrace& trace, double t_start_ms,
                          std::int64_t bytes, double rtt_ms,
                          double size_coeff) {
  if (bytes <= 0) return 0.0;
  double remaining = (1.0 + size_coeff) * static_cast<double>(bytes);
  double t = t_start_ms + rtt_ms;
  const double dt = trace.dt_ms();
  const double trace_end = trace.duration_ms();
  // Drain interval by interval (O(1) per trace sample, blackout samples
  // included); the partial interval that finishes the payload is solved
  // exactly.
  while (t < trace_end) {
    const double bw = trace.at(t);  // bytes/ms; zero during a blackout
    const double interval_end =
        std::min(trace_end, (std::floor(t / dt) + 1.0) * dt);
    if (bw > 0.0) {
      const double drained = bw * (interval_end - t);
      if (drained >= remaining) return t + remaining / bw - t_start_ms;
      remaining -= drained;
    }
    t = interval_end;
  }
  // Past the end the final sample holds indefinitely. A dead tail means the
  // payload never arrives: report +inf so callers can time out / degrade
  // instead of spinning.
  const double bw = trace.at(trace_end);
  if (bw <= 0.0) return std::numeric_limits<double>::infinity();
  return std::max(t, t_start_ms + rtt_ms) + remaining / bw - t_start_ms;
}

}  // namespace cadmc::runtime
