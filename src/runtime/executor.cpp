#include "runtime/executor.h"

#include <chrono>
#include <thread>

#include "obs/span.h"
#include "runtime/fault.h"
#include "tensor/serialize.h"

namespace cadmc::runtime {

ExecutionResult execute_range(const nn::Model& model,
                              const tensor::Tensor& input, std::size_t begin,
                              std::size_t end,
                              const latency::ComputeLatencyModel& device) {
  obs::ScopedSpan span("exec_range");
  ExecutionResult result;
  result.device_ms = device.range_latency_ms(model, begin, end);
  span.set_modelled_ms(result.device_ms);
  result.output = model.forward_range(input, begin, end);
  return result;
}

CloudExecutor::CloudExecutor(nn::Model cloud_half,
                             latency::ComputeLatencyModel device,
                             GatewayConfig config)
    : device_(std::move(device)),
      model_(std::move(cloud_half)),
      gateway_([this](const GatewayRequest& request) { return handle(request); },
               config) {}

CloudExecutor::~CloudExecutor() { stop(); }

std::uint16_t CloudExecutor::start() { return gateway_.start(); }
void CloudExecutor::stop() { gateway_.stop(); }

void CloudExecutor::set_straggler_injector(FaultInjector* injector,
                                           double base_ms) {
  std::lock_guard<std::mutex> lock(straggler_mutex_);
  straggler_injector_ = injector;
  straggler_base_ms_ = base_ms;
}

Blob CloudExecutor::handle(const GatewayRequest& request) {
  obs::ScopedSpan span("cloud_handle");
  double straggle_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(straggler_mutex_);
    if (straggler_injector_ != nullptr) {
      // The injector's RNG streams are not thread-safe; draw under the lock.
      const double factor = straggler_injector_->next_straggler_factor();
      if (factor > 1.0) straggle_ms = (factor - 1.0) * straggler_base_ms_;
    }
  }
  if (straggle_ms > 0.0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(straggle_ms));
  std::size_t offset = 0;
  const tensor::Tensor features = tensor::decode_tensor(request.payload, offset);
  const ExecutionResult result =
      execute_range(model_, features, 0, model_.size(), device_);
  span.set_modelled_ms(result.device_ms);
  Blob response = tensor::encode_tensor(result.output);
  tensor::Tensor ms({1});
  ms(0) = static_cast<float>(result.device_ms);
  tensor::encode_tensor(ms, response);
  if (obs::enabled()) {
    obs::count("cadmc.cloud.requests");
    obs::count("cadmc.cloud.bytes_rx",
               static_cast<std::int64_t>(request.payload.size()));
    obs::count("cadmc.cloud.bytes_tx",
               static_cast<std::int64_t>(response.size()));
  }
  return response;
}

RemoteResult call_cloud(TcpClient& client, const tensor::Tensor& features) {
  obs::ScopedSpan span("cloud_call");
  const Blob request = tensor::encode_tensor(features);
  const Blob response = client.call(request);
  std::size_t offset = 0;
  RemoteResult result;
  result.logits = tensor::decode_tensor(response, offset);
  const tensor::Tensor ms = tensor::decode_tensor(response, offset);
  result.cloud_ms = ms(0);
  span.set_modelled_ms(result.cloud_ms);
  if (obs::enabled()) {
    obs::count("cadmc.cloud.calls");
    obs::count("cadmc.cloud.bytes_tx",
               static_cast<std::int64_t>(request.size()));
    obs::count("cadmc.cloud.bytes_rx",
               static_cast<std::int64_t>(response.size()));
  }
  return result;
}

}  // namespace cadmc::runtime
