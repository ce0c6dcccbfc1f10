// Block execution: runs real tensors through model layer ranges while
// reporting latency from the device's analytic model (the host CPU is not
// the phone/TX2/cloud being modelled). The cloud executor serves one
// immutable cloud half — the untouched base suffix base[cut:] — behind a
// concurrent Gateway so features can cross a real socket in the field demo.
// Any number of FieldSessions may share one executor and its one model;
// nothing is registered per session.
#pragma once

#include <mutex>

#include "latency/compute_model.h"
#include "nn/model.h"
#include "runtime/gateway.h"
#include "runtime/transport.h"

namespace cadmc::runtime {

class FaultInjector;

struct ExecutionResult {
  tensor::Tensor output;
  double device_ms = 0.0;  // modelled latency on the profiled device
};

/// Runs layers [begin, end) of `model` on `input`.
ExecutionResult execute_range(const nn::Model& model,
                              const tensor::Tensor& input, std::size_t begin,
                              std::size_t end,
                              const latency::ComputeLatencyModel& device);

/// Cloud-side executor: serves one cloud half behind a concurrent Gateway.
/// Protocol: request = encoded feature tensor, response = encoded logits
/// followed by an encoded 1-element tensor holding the modelled cloud ms.
///
/// Every request, whatever its session id, runs on the one model from the
/// constructor. Inference is a `const` pass, so the Gateway workers share
/// that model and execute requests in parallel with no lock held.
class CloudExecutor {
 public:
  CloudExecutor(nn::Model cloud_half, latency::ComputeLatencyModel device,
                GatewayConfig config = {});
  ~CloudExecutor();

  std::uint16_t start();
  void stop();
  bool running() const { return gateway_.running(); }
  /// Last bound port; a restarted executor re-binds it when possible, so
  /// sessions that cached the address reconnect without rediscovery.
  std::uint16_t port() const { return gateway_.port(); }

  /// The model every request runs on.
  const nn::Model& model() const { return model_; }

  /// Chaos hook: each handled request draws a straggler factor f >= 1 from
  /// `injector` and sleeps (f - 1) * base_ms before computing — server-side
  /// compute stragglers, as opposed to the client-side frame faults. Not
  /// owned; pass nullptr to disable.
  void set_straggler_injector(FaultInjector* injector, double base_ms = 20.0);

 private:
  Blob handle(const GatewayRequest& request);

  latency::ComputeLatencyModel device_;
  const nn::Model model_;
  std::mutex straggler_mutex_;  // guards the injector fields (its RNG too)
  FaultInjector* straggler_injector_ = nullptr;
  double straggler_base_ms_ = 20.0;
  Gateway gateway_;
};

/// Edge-side remote call: sends features, returns logits + modelled cloud ms.
struct RemoteResult {
  tensor::Tensor logits;
  double cloud_ms = 0.0;
};
RemoteResult call_cloud(TcpClient& client, const tensor::Tensor& features);

}  // namespace cadmc::runtime
