#include "runtime/field.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/span.h"
#include "obs/trace_export.h"

namespace cadmc::runtime {

namespace {
/// Same structure and bitwise-equal parameters.
bool same_model(const nn::Model& a, const nn::Model& b) {
  if (a.signature() != b.signature()) return false;
  // params() is non-const only because optimizers write through it.
  const auto pa = const_cast<nn::Model&>(a).params();
  const auto pb = const_cast<nn::Model&>(b).params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i)
    if (pa[i]->shape() != pb[i]->shape() ||
        std::memcmp(pa[i]->data().data(), pb[i]->data().data(),
                    pa[i]->byte_size()) != 0)
      return false;
  return true;
}
}  // namespace

FieldSession::FieldSession(engine::RealizedStrategy realized,
                           latency::ComputeLatencyModel edge_device,
                           latency::ComputeLatencyModel cloud_device,
                           net::BandwidthTrace trace, double rtt_ms,
                           double time_scale, FieldFaultConfig faults)
    : model_(std::move(realized.model)),
      cut_(realized.cut),
      edge_device_(std::move(edge_device)),
      trace_(std::move(trace)),
      rtt_ms_(rtt_ms),
      time_scale_(time_scale),
      faults_(faults),
      rule_(faults.breaker, faults.cloud_deadline_ms, /*edge_fallback=*/true,
            faults.metrics) {
  // Field mode is where the link misbehaves: the flight recorder is always
  // on so a fault dump exists even when metrics collection is off.
  obs::set_flight_recording(true);
  if (offloads()) {
    nn::Model suffix = model_.slice(cut_, model_.size());
    std::uint16_t port = 0;
    if (faults_.shared_cloud != nullptr) {
      // Multi-session mode: the shared gateway serves one model for every
      // session, so it must be exactly this session's suffix. start() is
      // idempotent.
      if (!same_model(suffix, faults_.shared_cloud->model()))
        throw std::invalid_argument(
            "FieldSession: cloud suffix differs from the shared executor's "
            "model");
      port = faults_.shared_cloud->start();
    } else {
      cloud_ = std::make_unique<CloudExecutor>(std::move(suffix),
                                               std::move(cloud_device));
      port = cloud_->start();
    }
    cloud_up_ = true;
    client_.connect(port, client_config());
    client_.set_fault_injector(faults_.injector);
  }
}

TcpClientConfig FieldSession::client_config() const {
  TcpClientConfig config;
  config.timeout_ms = faults_.cloud_deadline_ms;
  config.max_retries = faults_.max_retries;
  config.backoff_ms = faults_.backoff_ms;
  config.session_id = faults_.session_id;
  return config;
}

FieldSession::~FieldSession() {
  client_.close();
  if (cloud_) cloud_->stop();
}

obs::MetricsRegistry& FieldSession::metrics() const {
  return faults_.metrics != nullptr ? *faults_.metrics
                                    : obs::MetricsRegistry::global();
}

CloudExecutor* FieldSession::executor() const {
  return faults_.shared_cloud != nullptr ? faults_.shared_cloud : cloud_.get();
}

void FieldSession::kill_cloud() {
  CloudExecutor* exec = executor();
  if (exec == nullptr || !cloud_up_) return;
  // Close the client first so no reply is pending on a connection the
  // draining gateway is about to shed.
  client_.close();
  if (exec->running()) exec->stop();
  cloud_up_ = false;
}

void FieldSession::restart_cloud() {
  CloudExecutor* exec = executor();
  if (exec == nullptr || cloud_up_) return;
  // Port-stable restart: a shared gateway re-binds its old port, so the
  // *other* sessions riding it reconnect inside their own retry loops
  // without being told the address again.
  const std::uint16_t port = exec->running() ? exec->port() : exec->start();
  cloud_up_ = true;
  client_.connect(port, client_config());
  client_.set_fault_injector(faults_.injector);
  if (obs::enabled())
    metrics().counter("cadmc.runtime.fault.cloud_restarts").add(1);
}

FieldOutcome FieldSession::infer(const tensor::Tensor& input,
                                 double t_virtual_ms) {
  // Root of the per-frame causal tree: edge compute -> transfer ->
  // cloud compute (server-side spans join via the frame's trace context).
  obs::ScopedSpan frame_span("field_frame", faults_.metrics);
  FieldOutcome outcome;
  tensor::Tensor features = input;
  if (cut_ > 0) {
    const ExecutionResult edge =
        execute_range(model_, input, 0, cut_, edge_device_);
    outcome.edge_ms = edge.device_ms;
    features = edge.output;
  }
  if (!offloads()) {
    outcome.logits = features;
    frame_span.set_modelled_ms(outcome.total_ms());
    return outcome;
  }
  if (faults_.injector != nullptr && faults_.injector->next_cloud_crash())
    kill_cloud();
  const double wait_ms = rule_.offload(
      /*link_dead=*/false,
      [&] {
        const double transfer =
            shaped_transfer_ms(trace_, t_virtual_ms + outcome.edge_ms,
                               features.byte_size(), rtt_ms_);
        // Dead link: the payload would never arrive; don't sleep on it.
        if (!std::isfinite(transfer)) return transfer;
        {
          obs::ScopedSpan transfer_span("transfer", faults_.metrics);
          transfer_span.set_modelled_ms(transfer);
          if (time_scale_ > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(transfer *
                                                          time_scale_));
          }
        }
        const RemoteResult remote = call_cloud(client_, features);
        outcome.transfer_ms = transfer;
        outcome.logits = remote.logits;
        outcome.cloud_ms = remote.cloud_ms;
        return transfer + remote.cloud_ms;
      },
      [&] {
        // The suffix runs locally and pays edge-device prices.
        const ExecutionResult local =
            execute_range(model_, features, cut_, model_.size(), edge_device_);
        outcome.degraded = true;
        outcome.logits = local.output;
        outcome.cloud_ms = local.device_ms;
      });
  if (outcome.degraded) {
    outcome.transfer_ms = wait_ms;
  } else {
    frame_span.set_modelled_ms(outcome.total_ms());
  }
  return outcome;
}

}  // namespace cadmc::runtime
