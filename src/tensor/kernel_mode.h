// Runtime kernel-mode selection for src/tensor.
//
// Two modes exist:
//  * kDeterministic (default) — the blocked kernels with one double
//    accumulator per output element. Bit-identical to tensor::reference for
//    any thread count; this is the repo-wide test contract. The packed GEMM
//    runs an AVX2 tile of double lanes whenever the CPU has AVX2+FMA (a
//    float x float product is exact in double, so lanes round exactly like
//    the scalar loop), and the scalar micro-kernel elsewhere — the same
//    bits either way, so this is not a mode of its own.
//  * kFast — explicitly vectorized fp32 kernels (AVX2/FMA today, NEON
//    later). Validated against the reference kernels by tolerance
//    (tests/compare.h) instead of bit-equality, but still invariant to
//    thread count: every output element is produced by exactly one task in
//    a fixed operand order, only the accumulator width changes.
//
// Selection order: set_kernel_mode() (CLI `--kernel-mode`) wins, else the
// CADMC_KERNEL_MODE environment variable (deterministic|fast), else
// deterministic. A fast request on hardware without AVX2+FMA (or in a build
// whose compiler could not target them) silently falls back to the
// deterministic kernels — kernel_mode() reports what will actually run.
#pragma once

#include <optional>
#include <string_view>

namespace cadmc::tensor {

enum class KernelMode {
  kDeterministic = 0,  // double-accumulator kernels, bitwise reference contract
  kFast = 1,           // vectorized fp32 kernels, tolerance contract
};

/// Parses "deterministic" or "fast" (exact, lowercase). nullopt otherwise.
std::optional<KernelMode> parse_kernel_mode(std::string_view name);

/// "deterministic" / "fast".
const char* kernel_mode_name(KernelMode mode);

/// True when this binary contains the AVX2/FMA translation unit (the build
/// could target the ISA). Independent of the machine it runs on.
bool vector_kernels_compiled();

/// True when the CPU executing right now reports AVX2 and FMA.
bool vector_kernels_supported();

/// compiled && supported — the gate every fast-path dispatch checks.
bool vector_kernels_available();

/// Overrides environment and default (CLI `--kernel-mode`).
void set_kernel_mode(KernelMode mode);

/// Drops the set_kernel_mode() override and re-reads CADMC_KERNEL_MODE
/// (tests use this; the CLI never calls it).
void reset_kernel_mode();

/// The mode that was asked for (override, else env, else deterministic) —
/// before the hardware-availability fold.
KernelMode requested_kernel_mode();

/// The mode the kernels will actually run: requested_kernel_mode(), demoted
/// to kDeterministic when the vector kernels are unavailable. A demotion or
/// an unparseable CADMC_KERNEL_MODE value warns once.
KernelMode kernel_mode();

/// Called by ops whose only implementation is the deterministic one when a
/// fast-mode run reaches them (the softmax/loss kernels): increments the
/// `cadmc.kernel.fast_fallbacks` counter (when metrics are enabled) and
/// logs a once-per-process warning naming the first such op, so profile
/// runs can't silently mix modes. Ops whose fast path is bitwise-identical
/// by construction (maxpool, relu) are mode-neutral and do not count.
void note_fast_fallback(const char* op);

}  // namespace cadmc::tensor
