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
/// Whether `suffix` is layers [cut, end) of `model`: the same signature()
/// and bitwise-equal parameters, compared in place.
bool is_suffix_of(const nn::Model& suffix, const nn::Model& model,
                  std::size_t cut) {
  if (suffix.size() != model.size() - cut ||
      suffix.input_shape() != model.boundary_shapes()[cut])
    return false;
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    // params() is non-const only because optimizers write through it.
    auto& a = const_cast<nn::Layer&>(suffix.layer(i));
    auto& b = const_cast<nn::Layer&>(model.layer(cut + i));
    if (a.spec().to_string() != b.spec().to_string()) return false;
    const auto pa = a.params();
    const auto pb = b.params();
    if (pa.size() != pb.size()) return false;
    for (std::size_t j = 0; j < pa.size(); ++j)
      if (pa[j]->shape() != pb[j]->shape() ||
          std::memcmp(pa[j]->data().data(), pb[j]->data().data(),
                      pa[j]->byte_size()) != 0)
        return false;
  }
  return true;
}
}  // namespace

FieldSession::FieldSession(const engine::RealizedStrategy& realized,
                           CloudExecutor* cloud,
                           latency::ComputeLatencyModel edge_device,
                           net::BandwidthTrace trace, double rtt_ms,
                           double time_scale, FieldFaultConfig faults)
    : prefix_(realized.model.slice(0, realized.cut)),
      cloud_(realized.cut < realized.model.size() ? cloud : nullptr),
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
  if (realized.cut == realized.model.size()) return;
  // The executor serves one model for every session riding it, and the
  // fallback runs that same model, so it must be exactly this suffix.
  if (cloud_ == nullptr)
    throw std::invalid_argument("FieldSession: offloading needs an executor");
  if (!is_suffix_of(cloud_->model(), realized.model, realized.cut))
    throw std::invalid_argument(
        "FieldSession: cloud suffix differs from the executor's model");
  connect();
}

void FieldSession::connect() {
  TcpClientConfig config;
  config.timeout_ms = faults_.cloud_deadline_ms;
  config.max_retries = faults_.max_retries;
  config.backoff_ms = faults_.backoff_ms;
  config.session_id = faults_.session_id;
  // start() returns the running executor's port, or re-binds its old one:
  // a restarted shared gateway keeps its address, so the *other* sessions
  // riding it reconnect inside their own retry loops without being told.
  client_.connect(cloud_->start(), config);
  client_.set_fault_injector(faults_.injector);
  cloud_up_ = true;
}

obs::MetricsRegistry& FieldSession::metrics() const {
  return faults_.metrics != nullptr ? *faults_.metrics
                                    : obs::MetricsRegistry::global();
}

void FieldSession::kill_cloud() {
  if (cloud_ == nullptr || !cloud_up_) return;
  // Close the client first so no reply is pending on a connection the
  // draining gateway is about to shed.
  client_.close();
  if (cloud_->running()) cloud_->stop();
  cloud_up_ = false;
}

void FieldSession::restart_cloud() {
  if (cloud_ == nullptr || cloud_up_) return;
  connect();
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
  if (!prefix_.empty()) {
    const ExecutionResult edge =
        execute_range(prefix_, input, 0, prefix_.size(), edge_device_);
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
        // The executor's suffix runs locally and pays edge-device prices.
        const nn::Model& suffix = cloud_->model();
        const ExecutionResult local =
            execute_range(suffix, features, 0, suffix.size(), edge_device_);
        outcome.degraded = true;
        outcome.logits = local.output;
        outcome.cloud_ms = local.device_ms;
      });
  if (outcome.degraded) outcome.transfer_ms = wait_ms;
  frame_span.set_modelled_ms(outcome.total_ms());
  return outcome;
}

}  // namespace cadmc::runtime
