// Bandwidth shaping: shaped_transfer_ms is virtual-time transfer. It
// integrates a bandwidth trace's instantaneous rate from the moment a
// payload starts sending until every byte is delivered. This is what the
// field-test harness (Table V) uses: the *decision* was made from an
// estimate, but the *outcome* pays for every fade the link hits
// mid-transfer. A FieldSession sleeps a scaled copy of the same time so
// real bytes cross its loopback socket at trace-shaped rates.
#pragma once

#include <cstdint>

#include "net/trace.h"

namespace cadmc::runtime {

/// Time to deliver `bytes` starting at `t_start_ms`, paying `rtt_ms` of
/// propagation first and then draining the payload (inflated by
/// `size_coeff`, matching Eqn. 6's f(S|W)) at the trace's instantaneous
/// bandwidth. The trace's final sample extends indefinitely.
double shaped_transfer_ms(const net::BandwidthTrace& trace, double t_start_ms,
                          std::int64_t bytes, double rtt_ms,
                          double size_coeff = 0.18);

}  // namespace cadmc::runtime
