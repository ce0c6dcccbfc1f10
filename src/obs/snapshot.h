// Periodic metrics-snapshot exporter: a background thread that appends a
// JSONL heartbeat plus the global registry's counter/gauge/histogram values
// to a file every interval, so a serving process (gateway, field emulator)
// can be observed *while it runs* — `tail -f` the file, or feed it to
// `cadmc report`. Span records are not re-dumped per tick (the ring holds up
// to 100,000); the end-of-run exporters cover those.
//
// Enabled from the environment: CADMC_METRICS_INTERVAL_MS=<ms> turns the
// exporter on (and implies CADMC_METRICS=1 — a snapshot of a disabled
// registry would be empty), CADMC_METRICS_SNAPSHOT=<path> overrides the
// default output path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace cadmc::obs {

class SnapshotExporter {
 public:
  struct Options {
    std::string path = "cadmc_metrics_live.jsonl";
    int interval_ms = 1000;
  };

  /// Opens `options.path` for append and starts the exporter thread. The
  /// first snapshot is written after one interval.
  explicit SnapshotExporter(Options options);
  ~SnapshotExporter();
  SnapshotExporter(const SnapshotExporter&) = delete;
  SnapshotExporter& operator=(const SnapshotExporter&) = delete;

  /// Stops and joins the exporter thread, writing one final snapshot so a
  /// short-lived process still leaves a record. Idempotent.
  void stop();

  /// Writes one snapshot block immediately (also what the thread calls each
  /// tick). Thread-safe. Returns false on I/O failure.
  bool write_snapshot_now();

  std::uint64_t snapshots_written() const {
    return snapshots_.load(std::memory_order_relaxed);
  }
  const std::string& path() const { return options_.path; }

  /// Builds an exporter from CADMC_METRICS_INTERVAL_MS /
  /// CADMC_METRICS_SNAPSHOT, enabling metrics collection as a side effect.
  /// Returns null when the interval variable is unset or not a positive
  /// integer.
  static std::unique_ptr<SnapshotExporter> from_env();

 private:
  void run();

  Options options_;
  std::ofstream out_;
  std::mutex io_mutex_;    // serializes write_snapshot_now vs the thread
  std::mutex wake_mutex_;  // condition variable plumbing for prompt stop
  std::condition_variable wake_;
  bool stopping_ = false;  // guarded by wake_mutex_
  std::atomic<std::uint64_t> snapshots_{0};
  std::thread thread_;
};

}  // namespace cadmc::obs
