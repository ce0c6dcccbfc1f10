// CADMC end-to-end benchmark program.
//
//   cadmc_perfbench --workload <edge_frame|cloud_conv_suffix>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--setup-reps <n>] [--inject <corrupt|shed>]
//
// Prints a host line, then one JSON result line: the end-to-end metrics with
// --trace 0 (obs off), the per-layer metrics with --trace 1 (obs on for the
// traced phases). Exit 0 with a result, 2 on bad arguments, 3 when the run
// cannot be scored, 1 on any other error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.h"
#include "obs/metrics.h"
#include "tensor/kernel_mode.h"
#include "util/thread_pool.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cadmc_perfbench --workload <edge_frame|cloud_conv_suffix> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--setup-reps <n>] [--inject <corrupt|shed>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::atof(value.c_str());
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--setup-reps") options.setup_reps = std::atoi(value.c_str());
    else if (flag == "--inject") options.inject = value;
    else return usage();
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return usage();

  // End-to-end numbers come from untraced runs, whatever the environment says.
  cadmc::obs::set_enabled(false);
  std::printf("perfbench host: nproc=%u avx2_fma=%d kernel_mode=%s threads=%zu "
              "workload=%s seed=%llu seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(),
              cadmc::tensor::vector_kernels_supported() ? 1 : 0,
              cadmc::tensor::kernel_mode_name(cadmc::tensor::kernel_mode()),
              cadmc::util::configured_threads(), options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
  try {
    perfbench::Result result;
    if (options.workload == "edge_frame")
      result = perfbench::run_edge_frame(options);
    else if (options.workload == "cloud_conv_suffix")
      result = perfbench::run_cloud_conv_suffix(options);
    else
      return usage();
    std::printf("perfbench errors: attempted=%lld failed=%lld error_rate=%.6g\n",
                static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed),
                static_cast<double>(result.failed) /
                    static_cast<double>(result.attempted > 0 ? result.attempted : 1));
    std::printf("%s\n", perfbench::to_json(result).c_str());
    return 0;
  } catch (const perfbench::InvalidRun& e) {
    std::fprintf(stderr, "perfbench: invalid run, not scored: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
