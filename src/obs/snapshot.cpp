#include "obs/snapshot.h"

#include <chrono>
#include <cstdlib>
#include <sstream>

#include "obs/export.h"
#include "obs/span.h"

namespace cadmc::obs {

SnapshotExporter::SnapshotExporter(Options options)
    : options_(std::move(options)) {
  if (options_.interval_ms < 1) options_.interval_ms = 1;
  out_.open(options_.path, std::ios::app);
  thread_ = std::thread([this] { run(); });
}

SnapshotExporter::~SnapshotExporter() { stop(); }

void SnapshotExporter::stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  write_snapshot_now();  // final state, so short runs still leave a record
}

bool SnapshotExporter::write_snapshot_now() {
  // Snapshot the registry outside the I/O lock: the registry has its own
  // mutex, and holding ours during collection would stall the caller.
  const MetricsRegistry& registry = MetricsRegistry::global();
  const auto counters = registry.counter_values();
  const auto gauges = registry.gauge_values();
  const auto histograms = registry.histogram_values();
  const std::uint64_t seq =
      snapshots_.fetch_add(1, std::memory_order_relaxed) + 1;

  std::ostringstream block;
  block << "{\"type\":\"snapshot\",\"seq\":" << seq
        << ",\"t_ms\":" << num_g12(steady_now_ms())
        << ",\"counters\":" << counters.size()
        << ",\"gauges\":" << gauges.size()
        << ",\"histograms\":" << histograms.size() << "}\n";
  for (const auto& [name, v] : counters)
    block << "{\"type\":\"counter\",\"name\":\"" << json_escape(name)
          << "\",\"value\":" << v << ",\"seq\":" << seq << "}\n";
  for (const auto& [name, v] : gauges)
    block << "{\"type\":\"gauge\",\"name\":\"" << json_escape(name)
          << "\",\"value\":" << num_g12(v) << ",\"seq\":" << seq << "}\n";
  for (const auto& [name, h] : histograms)
    block << "{\"type\":\"histogram\",\"name\":\"" << json_escape(name)
          << "\",\"count\":" << h.count << ",\"sum\":" << num_g12(h.sum)
          << ",\"min\":" << num_g12(h.min)
          << ",\"max\":" << num_g12(h.max)
          << ",\"p50\":" << num_g12(h.p50)
          << ",\"p90\":" << num_g12(h.p90)
          << ",\"p99\":" << num_g12(h.p99) << ",\"seq\":" << seq << "}\n";

  std::lock_guard<std::mutex> lock(io_mutex_);
  if (!out_) return false;
  out_ << block.str();
  out_.flush();
  return static_cast<bool>(out_);
}

void SnapshotExporter::run() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  while (!stopping_) {
    if (wake_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                       [this] { return stopping_; }))
      break;
    lock.unlock();
    write_snapshot_now();
    lock.lock();
  }
}

std::unique_ptr<SnapshotExporter> SnapshotExporter::from_env() {
  const char* interval_env = std::getenv("CADMC_METRICS_INTERVAL_MS");
  if (interval_env == nullptr || interval_env[0] == '\0') return nullptr;
  const int interval_ms = std::atoi(interval_env);
  if (interval_ms <= 0) return nullptr;
  Options options;
  options.interval_ms = interval_ms;
  const char* path_env = std::getenv("CADMC_METRICS_SNAPSHOT");
  if (path_env != nullptr && path_env[0] != '\0') options.path = path_env;
  set_enabled(true);  // a snapshot of a disabled registry would be empty
  return std::make_unique<SnapshotExporter>(std::move(options));
}

}  // namespace cadmc::obs
