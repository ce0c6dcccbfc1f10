// Internal helpers shared by the blocked kernels (ops.cpp), the vectorized
// fast-mode kernels (ops_avx2.cpp) and the naive reference kernels
// (ops_reference.cpp): argument validation, the derived convolution
// geometry, and the GEMM blocking/panel-layout definitions. Not part of the
// public ops.h surface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "tensor/ops.h"

namespace cadmc::tensor::detail {

// --- GEMM blocking parameters, shared by every kernel mode. --------------
inline constexpr int kNR = 8;       // micro-kernel panel width (columns of C)
// A GEMM fans out as one grid of (slice, row block, column block) tasks,
// each owning a kIBlock x kJBlock block of C; a slice is one (batch, group)
// of a conv or the whole matrix of a matmul. B is packed once per GEMM
// before the grid runs, so a row block costs no re-packing and can stay
// small enough to give a batch-1 conv several tasks per core.
inline constexpr int kIBlock = 32;  // rows per task (multiple of the 4-row tile)
inline constexpr int kJBlock = 64;  // columns per task (multiple of kNR)
// Rows of B per pack task when B is already in memory (a matmul, a
// pointwise conv): each task packs its rows into every panel, so a GEMM
// with one or two panels still packs on every core.
inline constexpr int kPackKBlock = 64;
// A GEMM with fewer rows than this skips panel packing (the pack cost would
// rival the math). Keyed on the whole GEMM's rows, never on one row block's.
inline constexpr int kPackMinRows = 4;
// Multiply-adds below this run serially: pool dispatch costs more than it
// saves. The threshold only picks serial-vs-parallel execution — results
// are identical either way (bitwise per mode).
inline constexpr std::int64_t kParallelMinMacc = 1 << 16;

// How B is laid out in memory: kRowMajorKN is B[k][n] (matmul, matmul_tn,
// im2col columns), kRowMajorNK is B[n][k] (matmul_nt).
enum class BLayout { kRowMajorKN, kRowMajorNK };

// Every panel is kNR elements wide: panel[kk*kNR + jj] is B(kk, j0+jj) for
// jj < jw, and a ragged panel (jw < kNR) is zero-padded, so the
// micro-kernels always run kNR columns and store only the jw real ones.
// The deterministic kernels pack into double (the float -> double widening
// is exact, and the tiles then read B without converting); fast mode packs
// float.

// Packs a B[k][ldb] row-major operand.
template <class T>
void pack_panel_kn(const float* __restrict src, int ldb, int k, int j0,
                   int jw, T* __restrict dst) {
  for (int kk = 0; kk < k; ++kk) {
    const float* __restrict s =
        src + static_cast<std::ptrdiff_t>(kk) * ldb + j0;
    T* __restrict p = dst + static_cast<std::ptrdiff_t>(kk) * kNR;
    for (int jj = 0; jj < jw; ++jj) p[jj] = s[jj];
    for (int jj = jw; jj < kNR; ++jj) p[jj] = T{0};
  }
}

// Packs a B[n][ldb] row-major operand (NT), i.e. B(kk, j) = src[j][kk].
template <class T>
void pack_panel_nk(const float* __restrict src, int ldb, int k, int j0,
                   int jw, T* __restrict dst) {
  for (int jj = 0; jj < jw; ++jj) {
    const float* __restrict s =
        src + static_cast<std::ptrdiff_t>(j0 + jj) * ldb;
    for (int kk = 0; kk < k; ++kk)
      dst[static_cast<std::ptrdiff_t>(kk) * kNR + jj] = s[kk];
  }
  for (int kk = 0; kk < k; ++kk)
    for (int jj = jw; jj < kNR; ++jj)
      dst[static_cast<std::ptrdiff_t>(kk) * kNR + jj] = T{0};
}

inline void check_rank2(const Tensor& t, const char* name) {
  if (t.rank() != 2)
    throw std::invalid_argument(std::string(name) + ": expected rank-2 tensor");
}

/// Derived pooling geometry, validated once per call. Pooling is unpadded,
/// so conv_out_size guarantees every window is fully in-bounds:
/// (ho-1)*stride + kernel - 1 <= h - 1. Kernels rely on this (no edge
/// checks in the window scans).
struct PoolDims {
  int n, c, h, w;  // input [N,C,H,W]
  int ho, wo;      // output spatial dims
};

inline PoolDims check_pool_args(const Tensor& input, int kernel, int stride,
                                const char* name) {
  if (input.rank() != 4)
    throw std::invalid_argument(std::string(name) + ": expected [N,C,H,W]");
  if (kernel <= 0 || stride <= 0)
    throw std::invalid_argument(std::string(name) +
                                ": kernel/stride must be positive");
  PoolDims d;
  d.n = input.dim(0);
  d.c = input.dim(1);
  d.h = input.dim(2);
  d.w = input.dim(3);
  d.ho = conv_out_size(d.h, kernel, stride, 0);
  d.wo = conv_out_size(d.w, kernel, stride, 0);
  if (d.ho <= 0 || d.wo <= 0)
    throw std::invalid_argument(std::string(name) + ": empty output");
  return d;
}

/// Derived convolution geometry, validated once per call.
struct ConvDims {
  int n, ci, h, w;       // input [N,Ci,H,W]
  int co, cig, k;        // weight [Co,Ci/groups,K,K]
  int groups, co_per_g;
  int ho, wo, how;       // output spatial dims, how = ho*wo
  int kk;                // GEMM depth per group: cig*k*k
  bool has_bias;
};

inline ConvDims check_conv_args(const Tensor& input, const Tensor& weight,
                                const Tensor& bias, const Conv2dSpec& spec) {
  if (input.rank() != 4 || weight.rank() != 4)
    throw std::invalid_argument("conv2d: expected rank-4 input and weight");
  ConvDims d;
  d.n = input.dim(0);
  d.ci = input.dim(1);
  d.h = input.dim(2);
  d.w = input.dim(3);
  d.co = weight.dim(0);
  d.cig = weight.dim(1);
  d.k = weight.dim(2);
  if (weight.dim(3) != d.k) throw std::invalid_argument("conv2d: non-square kernel");
  d.groups = spec.groups;
  if (d.ci % d.groups != 0 || d.co % d.groups != 0 || d.ci / d.groups != d.cig)
    throw std::invalid_argument("conv2d: group/channel mismatch");
  d.co_per_g = d.co / d.groups;
  d.has_bias = !bias.empty();
  if (d.has_bias && bias.numel() != d.co)
    throw std::invalid_argument("conv2d: bias size mismatch");
  d.ho = conv_out_size(d.h, d.k, spec.stride, spec.padding);
  d.wo = conv_out_size(d.w, d.k, spec.stride, spec.padding);
  if (d.ho <= 0 || d.wo <= 0) throw std::invalid_argument("conv2d: empty output");
  d.how = d.ho * d.wo;
  d.kk = d.cig * d.k * d.k;
  return d;
}

}  // namespace cadmc::tensor::detail
