// Internal entry points of the AVX2/FMA kernels (ops_avx2.cpp, compiled
// with -mavx2 -mfma when the toolchain supports them). Not part of the
// public ops.h surface — dispatch happens inside ops.cpp and
// ops_framework.cpp: the deterministic GEMM tile (gemm_packed_exact) and the
// exact relu_f32 / maxpool_row_f32 whenever vec::available(), everything
// else only when tensor::kernel_mode() == KernelMode::kFast, which in turn
// folds in vec::available().
//
// gemm_packed_exact, relu_f32 and maxpool_row_f32 keep the deterministic
// contract: bitwise equal to tensor::reference. The fast-mode contract of
// every other function (weaker than the deterministic kernels, still
// strict):
//  * fp32 accumulation with 8-lane FMA; validated against tensor::reference
//    by tolerance (tests/compare.h), not bitwise.
//  * Every output element is still produced by exactly one caller task in a
//    fixed operand order, so results are bit-identical across thread counts
//    and across repeated runs on the same machine — only the deterministic
//    mode's cross-mode bitwise guarantee is relaxed.
//  * The callable functions below must only run when available() is true;
//    the non-AVX2 build stubs throw std::logic_error if reached.
#pragma once

#include "tensor/ops_detail.h"

namespace cadmc::tensor::vec {

/// True when this translation unit was compiled with AVX2+FMA codegen.
bool compiled();

/// True when the running CPU reports AVX2 and FMA (cpuid).
bool cpu_supported();

/// compiled() && cpu_supported().
bool available();

/// The deterministic-contract GEMM of ops.cpp's packed case (the whole
/// GEMM has >= kPackMinRows rows): C[i][0..cols) for the m rows of one row
/// block, from `panels`, the ceil(cols / kNR) B panels of the block's
/// columns (k * kNR doubles each, zero-padded, 64-byte aligned) that
/// ops.cpp packed once for the whole GEMM. One double accumulator per
/// element starting at row_init[i] (or 0), k ascending, one rounding to
/// float — bitwise-identical to the scalar micro_kernel and to
/// tensor::reference. 4x8 tiles of two 4-lane double accumulators per row.
/// Safe to run inside one parallel task (touches only its own rows and
/// columns, and only reads the panels).
void gemm_packed_exact(const float* a, int lda, const double* panels, int m,
                       int k, const float* row_init, float* c, int ldc,
                       int cols);

/// Fast-mode analogues of ops.cpp's packed and few-row GEMM cases, with
/// fp32 FMA accumulation, k ascending. `row_init` may be null (zero init)
/// or m per-row initial values (conv bias). The caller picks one from the
/// whole GEMM's row count (packed when it is >= kPackMinRows), so every row
/// block of one GEMM runs the same one. gemm_packed_f32 computes
/// C[i][0..cols) from float panels laid out as for gemm_packed_exact;
/// gemm_few_rows_f32 computes C[i][jbegin..jend) straight from B. Both are
/// safe to run inside one parallel task (they touch only their own rows and
/// columns).
void gemm_packed_f32(const float* a, int lda, const float* panels, int m,
                     int k, const float* row_init, float* c, int ldc,
                     int cols);
void gemm_few_rows_f32(const float* a, int lda, const float* b, int ldb,
                       detail::BLayout layout, int m, int k,
                       const float* row_init, float* c, int ldc, int jbegin,
                       int jend);

/// One depthwise-convolution output plane (single batch, single channel):
/// out[ho*wo] from plane[h*w] and the channel's k*k taps, (ky,kx) ascending
/// fp32 accumulation with `bias` as the initial value. Stride-1 interiors
/// run 8-wide FMA rows; boundaries and strided cases fall back to scalar
/// fp32 within the same element order.
void depthwise_plane_f32(const float* plane, const float* taps, float bias,
                         int h, int w, int ho, int wo, int k, int stride,
                         int padding, float* out);

/// y[j] += a * x[j] for j in [0, n) — the conv-backward dcol update.
void axpy_f32(float a, const float* x, float* y, int n);

/// Sum_j x[j]*y[j] with 8-lane FMA partials reduced in a fixed lane order —
/// the conv-backward dweight row dot.
float dot_f32(const float* x, const float* y, int n);

/// Sum of x[0..n) with 8-lane partials reduced in a fixed lane order — the
/// global_avgpool fp32 fast path.
float sum_f32(const float* x, int n);

/// y[j] = x[j] with x < 0 replaced by 0 and, when cap > 0, x > cap by cap.
/// Exact (no accumulation) and bitwise-identical to the scalar path,
/// -0.0f and NaN included (both pass through); vectorized purely for speed.
void relu_f32(const float* x, float* y, std::int64_t n, float cap);

/// One maxpool output row: out[ox] = max over (ky, kx) ascending of
/// row0[ky*w + ox*stride + kx], for ox in [0, wo). Windows must be fully
/// in-bounds (pooling is unpadded). The max combine keeps the FIRST operand
/// on ties (including -0.0f vs +0.0f) and propagates an earlier NaN exactly
/// like the scalar strictly-greater scan, so the output values are
/// bitwise-identical to the deterministic kernel.
void maxpool_row_f32(const float* row0, int w, int kernel, int stride, int wo,
                     float* out);

/// One avgpool output row: out[ox] = (fp32 sum over (ky, kx) ascending of
/// row0[ky*w + ox*stride + kx]) * inv. Tolerance contract (the
/// deterministic kernel sums in double).
void avgpool_row_f32(const float* row0, int w, int kernel, int stride, int wo,
                     float inv, float* out);

/// Fused SGD update sweep over n elements:
///   grad = fma(weight_decay, p[j], g[j])
///   v[j] = fma(momentum, v[j], grad)        (when v != nullptr)
///   p[j] = fnma(lr, v[j] | grad, p[j])
/// Pass v == nullptr for plain SGD. Tolerance contract vs the unfused
/// scalar reference (FMA rounds once where the scalar path rounds twice).
void sgd_update_f32(float* p, const float* g, float* v, std::int64_t n,
                    float lr, float momentum, float weight_decay);

}  // namespace cadmc::tensor::vec
