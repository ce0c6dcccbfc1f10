// Blocked, thread-parallel compute kernels. See ops.h for the accumulation
// contract and ops_reference.cpp for the naive loop nests that define it.
//
// Structure:
//  * One GEMM (double accumulators over packed kNR-column B-panels) shared
//    by matmul/matmul_tn/matmul_nt and the convolution forward. Its packed
//    case (the whole GEMM has m >= kPackMinRows rows) runs the AVX2 4x8
//    double-lane tile of ops_avx2.cpp (vec::gemm_packed_exact) whenever
//    vec::available(), and the scalar micro_kernel below otherwise; both
//    round every element exactly as tensor::reference does, because a
//    float x float product is exact in double and each element still sums
//    k ascending.
//  * gemm_grid packs each GEMM's B panels once, in a parallel phase of
//    (slice, row chunk of B) tasks, into the caller's arena: widened to
//    double for the deterministic kernels, float for fast mode. It then
//    fans the GEMM out as one grid of (slice, kIBlock-row block,
//    kJBlock-column block) tasks that only read those panels; a slice is
//    one (batch, group) of a conv or the whole matrix of a matmul. Row
//    blocks give a batch-1 conv with a small output map one task per 32
//    output channels. The packed vs few-rows choice stays keyed on the
//    whole GEMM's m, so a ragged last row block runs the same kernels as
//    the blocks before it.
//  * conv2d lowers to im2col + GEMM per (batch, group). The forward's
//    im2col runs inside the pack phase: each task first writes the im2col
//    rows of its (slice, kIm2colChannels input channels) block, then packs
//    them, so a batch-1 conv copies on every core without a fan-out of its
//    own. conv2d_backward builds the same matrix with the same blocks.
//    1x1 stride-1 unpadded convs skip the im2col copy entirely (the input
//    already is the column matrix) and depthwise convs use a direct
//    per-channel loop.
//  * conv2d_backward computes dweight as a row-dot GEMM against the same
//    column matrix, and dinput as W^T x grad_out into a double-precision
//    dcol buffer followed by a col2im *gather* (each input element owns its
//    own accumulator — no scatter races, no atomics).
//  * Scratch (im2col matrices, packed panels, dcol) comes from the
//    per-thread tensor::ScratchArena; fan-out runs on util::parallel_for
//    with every output element owned by exactly one task, which is what
//    makes results bit-identical for any thread count.
//  * Kernel-mode dispatch: kernel_mode() == kFast routes the GEMM grid
//    tasks, the depthwise planes and the conv-backward inner loops to the
//    vectorized fp32 kernels in ops_avx2.cpp (vec::*). The mode and the
//    GEMM path are resolved once per public entry point, so one call never
//    mixes kernels; im2col, the col2im gather structure and all task
//    ownership stay shared.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <type_traits>

#include "obs/metrics.h"
#include "obs/span.h"
#include "tensor/kernel_mode.h"
#include "tensor/ops_detail.h"
#include "tensor/ops_vector.h"
#include "tensor/scratch.h"
#include "util/thread_pool.h"

namespace cadmc::tensor {

namespace {

using detail::BLayout;
using detail::ConvDims;
using detail::kIBlock;
using detail::kJBlock;
using detail::kNR;
using detail::kPackMinRows;
using detail::kParallelMinMacc;
using detail::kPackKBlock;
using detail::pack_panel_kn;
using detail::pack_panel_nk;

void note_gemm_flops(std::int64_t macc) {
  if (obs::enabled()) obs::count("cadmc.kernel.gemm_flops", 2 * macc);
}

void note_im2col_bytes(std::int64_t bytes) {
  if (obs::enabled()) obs::count("cadmc.kernel.im2col_bytes", bytes);
}

// Which kernel set a GEMM runs, resolved once per public op so one call
// never mixes them. kExactVector is the deterministic contract on the AVX2
// tile (ops_avx2.cpp) and is picked whenever the CPU can run it; kScalar is
// the same contract on machines or builds without it.
enum class GemmPath { kScalar, kExactVector, kFast };

GemmPath gemm_path() {
  if (kernel_mode() == KernelMode::kFast) return GemmPath::kFast;
  return vec::available() ? GemmPath::kExactVector : GemmPath::kScalar;
}

bool fast_mode() { return kernel_mode() == KernelMode::kFast; }

// One C-row x B-panel update, the scalar path of builds and CPUs without
// the AVX2 tile:
//   c[jj] = float(init + sum_{kk ascending} a[kk] * panel[kk*kNR + jj])
// All kNR lanes run (a compile-time trip count, so the loop vectorizes);
// only the jw real columns of a zero-padded ragged panel are stored. The
// panel holds B widened to double, so each product is the exact
// double(a) * double(b) of tensor::reference.
void micro_kernel(const float* __restrict a, const double* __restrict panel,
                  int k, int jw, double init, float* __restrict c) {
  double acc[kNR];
  for (int jj = 0; jj < kNR; ++jj) acc[jj] = init;
  for (int kk = 0; kk < k; ++kk) {
    const double av = a[kk];
    const double* __restrict brow =
        panel + static_cast<std::ptrdiff_t>(kk) * kNR;
    for (int jj = 0; jj < kNR; ++jj) acc[jj] += av * brow[jj];
  }
  for (int jj = 0; jj < jw; ++jj) c[jj] = static_cast<float>(acc[jj]);
}

// Computes C[i][0..cols) for the m rows of one row block from the block's
// packed panels (ceil(cols / kNR) of them, k * kNR elements each): double
// panels for the deterministic paths, float panels for fast mode. Runs
// inside one parallel task; only touches its own rows and columns.
template <class P>
void gemm_packed_block(GemmPath path, const float* a, int lda,
                       const P* panels, int m, int k, const float* row_init,
                       float* c, int ldc, int cols) {
  if constexpr (std::is_same_v<P, float>) {
    vec::gemm_packed_f32(a, lda, panels, m, k, row_init, c, ldc, cols);
  } else if (path == GemmPath::kExactVector) {
    vec::gemm_packed_exact(a, lda, panels, m, k, row_init, c, ldc, cols);
  } else {
    const std::ptrdiff_t panel_elems = static_cast<std::ptrdiff_t>(k) * kNR;
    for (int j0 = 0; j0 < cols; j0 += kNR, panels += panel_elems)
      for (int i = 0; i < m; ++i)
        micro_kernel(a + static_cast<std::ptrdiff_t>(i) * lda, panels, k,
                     std::min(kNR, cols - j0),
                     row_init ? static_cast<double>(row_init[i]) : 0.0,
                     c + static_cast<std::ptrdiff_t>(i) * ldc + j0);
  }
}

// The few-rows case (the whole GEMM has m < kPackMinRows): C[i][jbegin..jend)
// straight from B, since packing would cost as much as the math. KN streams
// B rows into a double accumulator row (axpy style); NT rows are already
// contiguous dot products. Per-element operand order is unchanged: k
// ascending. Runs inside one parallel task.
void gemm_few_rows(GemmPath path, const float* a, int lda, const float* b,
                   int ldb, BLayout layout, int m, int k,
                   const float* row_init, float* c, int ldc, int jbegin,
                   int jend) {
  if (path == GemmPath::kFast) {
    vec::gemm_few_rows_f32(a, lda, b, ldb, layout, m, k, row_init, c, ldc,
                           jbegin, jend);
    return;
  }
  const int width = jend - jbegin;
  if (layout == BLayout::kRowMajorKN) {
    const auto accrow = ScratchArena::local().doubles(
        ScratchArena::kAccRow, static_cast<std::size_t>(width));
    for (int i = 0; i < m; ++i) {
      const double init = row_init ? static_cast<double>(row_init[i]) : 0.0;
      double* __restrict acc = accrow.data();
      for (int jj = 0; jj < width; ++jj) acc[jj] = init;
      const float* __restrict arow = a + static_cast<std::ptrdiff_t>(i) * lda;
      for (int kk = 0; kk < k; ++kk) {
        const double av = arow[kk];
        const float* __restrict brow =
            b + static_cast<std::ptrdiff_t>(kk) * ldb + jbegin;
        for (int jj = 0; jj < width; ++jj) acc[jj] += av * brow[jj];
      }
      float* __restrict crow =
          c + static_cast<std::ptrdiff_t>(i) * ldc + jbegin;
      for (int jj = 0; jj < width; ++jj)
        crow[jj] = static_cast<float>(acc[jj]);
    }
  } else {
    for (int i = 0; i < m; ++i) {
      const double init = row_init ? static_cast<double>(row_init[i]) : 0.0;
      const float* __restrict arow = a + static_cast<std::ptrdiff_t>(i) * lda;
      float* __restrict crow = c + static_cast<std::ptrdiff_t>(i) * ldc;
      for (int j = jbegin; j < jend; ++j) {
        const float* __restrict brow =
            b + static_cast<std::ptrdiff_t>(j) * ldb;
        double acc = init;
        for (int kk = 0; kk < k; ++kk)
          acc += static_cast<double>(arow[kk]) * brow[kk];
        crow[j] = static_cast<float>(acc);
      }
    }
  }
}

// The operands of one GEMM slice: C = A * B (+ row_init), A rows contiguous.
struct GemmSlice {
  const float* a;
  int lda;
  const float* b;
  int ldb;
  const float* row_init;  // null, or m per-row initial values (conv bias)
  float* c;
  int ldc;
};

// The fill_rows of a GEMM whose B operand is already in memory.
struct BInMemory {
  void operator()(std::size_t, int, int) const {}
};

// Runs `slices` m x n x k GEMMs, slice s on the operands slice_of(s), in two
// parallel phases:
//  1. One task per (slice, k_chunk rows of B): fill_rows(s, k0, k1) first
//     writes those rows of B (the conv forward's im2col; nothing for a
//     matmul), then a packed GEMM (m >= kPackMinRows, keyed on the whole
//     GEMM so a ragged last row block runs the same kernels as the blocks
//     before it) with several row blocks per slice packs them into every
//     panel of the slice. The panels of all slices sit in the caller's
//     kPanel slot: each B element is packed once per GEMM, and each task
//     writes only its own rows of them.
//  2. One grid of (slice, kIBlock-row block, kJBlock-column block) tasks,
//     so a batch-1 conv with few output columns still fans out over its
//     rows; the tasks only read the panels (or B, in the few-rows case).
//     With one row block per slice, each grid task packs its own panels
//     instead, on the core that reads them.
// Every C element has one owner task and sums k ascending, so the bits
// depend on neither the thread count nor the blocking.
template <class SliceOf, class FillRows>
void gemm_grid(std::size_t slices, BLayout layout, int m, int n, int k,
               int k_chunk, const SliceOf& slice_of,
               const FillRows& fill_rows) {
  const std::int64_t macc = static_cast<std::int64_t>(slices) * m * n * k;
  note_gemm_flops(macc);
  const GemmPath path = gemm_path();
  const bool parallel = macc >= kParallelMinMacc;
  const std::size_t jblocks = (n + kJBlock - 1) / kJBlock;
  const std::size_t blocks = (m + kIBlock - 1) / kIBlock * jblocks;
  const std::size_t tasks = slices * blocks;
  const std::size_t kchunks = (k + k_chunk - 1) / k_chunk;
  const std::size_t prep_tasks = slices * kchunks;
  const std::ptrdiff_t panel_elems = static_cast<std::ptrdiff_t>(k) * kNR;
  const std::ptrdiff_t slice_elems = (n + kNR - 1) / kNR * panel_elems;
  // With one row block per slice every panel has one reader, so that grid
  // task packs it itself (still once per GEMM), on the core that uses it.
  const bool pack_in_grid = m <= kIBlock;
  // Packs rows [k0, k0 + kn) of columns [jbegin, jend) of slice s into its
  // panels.
  const auto pack = [&](const GemmSlice& s, auto* panels, int k0, int kn,
                        int jbegin, int jend) {
    auto* dst = panels + jbegin / kNR * panel_elems +
                static_cast<std::ptrdiff_t>(k0) * kNR;
    for (int j0 = jbegin; j0 < jend; j0 += kNR, dst += panel_elems) {
      if (layout == BLayout::kRowMajorKN)
        pack_panel_kn(s.b + static_cast<std::ptrdiff_t>(k0) * s.ldb, s.ldb,
                      kn, j0, std::min(kNR, jend - j0), dst);
      else
        pack_panel_nk(s.b + k0, s.ldb, kn, j0, std::min(kNR, jend - j0), dst);
    }
  };
  // `packed` is null for the few-rows case, which reads B directly.
  const auto run = [&](auto* packed) {
    const bool pack_phase = packed && !pack_in_grid;
    if (pack_phase || !std::is_same_v<FillRows, BInMemory>)
      util::parallel_for_if(
          parallel && prep_tasks > 1, prep_tasks, [&](std::size_t t) {
            const std::size_t sl = t / kchunks;
            const int k0 = static_cast<int>(t % kchunks) * k_chunk;
            const int kn = std::min(k - k0, k_chunk);
            fill_rows(sl, k0, k0 + kn);
            if (pack_phase)
              pack(slice_of(sl), packed + sl * slice_elems, k0, kn, 0, n);
          });
    util::parallel_for_if(parallel && tasks > 1, tasks, [&](std::size_t t) {
      const GemmSlice s = slice_of(t / blocks);
      const int ibegin = static_cast<int>(t % blocks / jblocks) * kIBlock;
      const int jbegin = static_cast<int>(t % jblocks) * kJBlock;
      const int jend = std::min(n, jbegin + kJBlock);
      if (!packed) {
        gemm_few_rows(path, s.a, s.lda, s.b, s.ldb, layout, m, k, s.row_init,
                      s.c, s.ldc, jbegin, jend);
        return;
      }
      auto* panels = packed + t / blocks * slice_elems;
      if (pack_in_grid) pack(s, panels, 0, k, jbegin, jend);
      const std::ptrdiff_t row = ibegin;
      gemm_packed_block(path, s.a + row * s.lda, s.lda,
                        panels + jbegin / kNR * panel_elems,
                        std::min(m, ibegin + kIBlock) - ibegin, k,
                        s.row_init ? s.row_init + row : nullptr,
                        s.c + row * s.ldc + jbegin, s.ldc, jend - jbegin);
    });
  };
  ScratchArena& arena = ScratchArena::local();
  const std::size_t total = slices * static_cast<std::size_t>(slice_elems);
  if (m < kPackMinRows)
    run(static_cast<float*>(nullptr));
  else if (path == GemmPath::kFast)
    run(arena.floats(ScratchArena::kPanel, total).data());
  else
    run(arena.doubles(ScratchArena::kPanel, total).data());
}

// Full C = A * B: one slice of the task grid.
void gemm_blocked(const float* a, int lda, const float* b, int ldb,
                  BLayout layout, int m, int n, int k, float* c, int ldc) {
  gemm_grid(
      1, layout, m, n, k, kPackKBlock,
      [&](std::size_t) { return GemmSlice{a, lda, b, ldb, nullptr, c, ldc}; },
      BInMemory{});
}

// im2col of input channels [c0, c1) of slice bg = (b, g) into `cols`, the
// [n*groups] stack of [cig*k*k][ho*wo] column matrices, with zero-filled
// padded taps. Row order (icg, ky, kx) is the accumulation order of the
// contract.
void im2col_channels(const float* in, const ConvDims& d,
                     const Conv2dSpec& spec, std::size_t bg, int c0, int c1,
                     float* cols) {
  const int hw = d.h * d.w;
  const int b = static_cast<int>(bg) / d.groups;
  const int g = static_cast<int>(bg) % d.groups;
  const float* __restrict src =
      in + (static_cast<std::ptrdiff_t>(b) * d.ci + g * d.cig) * hw;
  float* __restrict dst =
      cols + static_cast<std::ptrdiff_t>(bg) * d.kk * d.how;
  for (int icg = c0; icg < c1; ++icg) {
    const float* __restrict plane =
        src + static_cast<std::ptrdiff_t>(icg) * hw;
    for (int ky = 0; ky < d.k; ++ky) {
      for (int kx = 0; kx < d.k; ++kx) {
        float* __restrict row =
            dst + (static_cast<std::ptrdiff_t>(icg) * d.k * d.k +
                   ky * d.k + kx) *
                      d.how;
        for (int oy = 0; oy < d.ho; ++oy) {
          const int iy = oy * spec.stride + ky - spec.padding;
          float* __restrict r = row + static_cast<std::ptrdiff_t>(oy) * d.wo;
          if (iy < 0 || iy >= d.h) {
            for (int ox = 0; ox < d.wo; ++ox) r[ox] = 0.0f;
            continue;
          }
          const float* __restrict irow =
              plane + static_cast<std::ptrdiff_t>(iy) * d.w;
          if (spec.stride == 1) {
            // Contiguous middle, zero edges — the common 3x3 pad-1 case
            // copies wo-2 floats straight through.
            int ox = 0;
            for (; ox < d.wo; ++ox) {
              const int ix = ox + kx - spec.padding;
              if (ix >= 0) break;
              r[ox] = 0.0f;
            }
            const int first_ix = ox + kx - spec.padding;
            const int run = std::min(d.wo - ox, d.w - first_ix);
            std::copy_n(irow + first_ix, run > 0 ? run : 0, r + ox);
            for (ox += std::max(run, 0); ox < d.wo; ++ox) r[ox] = 0.0f;
          } else {
            for (int ox = 0; ox < d.wo; ++ox) {
              const int ix = ox * spec.stride + kx - spec.padding;
              r[ox] = (ix >= 0 && ix < d.w) ? irow[ix] : 0.0f;
            }
          }
        }
      }
    }
  }
}

// Input channels per im2col task.
constexpr int kIm2colChannels = 16;

bool is_pointwise(const ConvDims& d, const Conv2dSpec& spec) {
  return d.k == 1 && spec.padding == 0 && spec.stride == 1;
}

bool is_depthwise(const ConvDims& d) { return d.cig == 1 && d.co_per_g == 1; }

// The [n*groups] stack of column matrices. For pointwise convs the input
// itself is the column matrix, so no copy happens; otherwise `owned` is a
// caller-arena buffer (it must outlive the fan-outs that read it) that
// im2col_channels fills. slice(b, g) is the row pointer for (b, g): row kk
// is `slice(b, g) + kk*how`.
struct ColMatrix {
  const float* base = nullptr;     // pointwise: input; else `owned`
  float* owned = nullptr;          // null when pointwise
  std::ptrdiff_t bg_stride = 0;    // elements between (b,g) slices
  const float* slice(int b, int g, int groups) const {
    return base + (static_cast<std::ptrdiff_t>(b) * groups + g) * bg_stride;
  }
};

ColMatrix col_matrix(const float* in, const ConvDims& d,
                     const Conv2dSpec& spec) {
  ColMatrix col;
  if (is_pointwise(d, spec)) {
    // Input [n][ci][hw] viewed as n*groups slices of [cig][how]; how == hw.
    col.base = in;
    col.bg_stride = static_cast<std::ptrdiff_t>(d.cig) * d.how;
    return col;
  }
  col.bg_stride = static_cast<std::ptrdiff_t>(d.kk) * d.how;
  const std::size_t total = static_cast<std::size_t>(col.bg_stride) *
                            static_cast<std::size_t>(d.n) * d.groups;
  col.owned = ScratchArena::local().floats(ScratchArena::kIm2col, total).data();
  col.base = col.owned;
  note_im2col_bytes(static_cast<std::int64_t>(total * sizeof(float)));
  return col;
}

// The filled column matrix, for conv2d_backward: one task per (slice,
// kIm2colChannels input channels), so a batch-1 conv copies on every core.
// (The forward fills the same blocks inside the GEMM's pack phase.)
ColMatrix build_col_matrix(const float* in, const ConvDims& d,
                           const Conv2dSpec& spec) {
  const ColMatrix col = col_matrix(in, d, spec);
  if (!col.owned) return col;
  const std::size_t cblocks =
      (d.cig + kIm2colChannels - 1) / kIm2colChannels;
  const std::size_t tasks = static_cast<std::size_t>(d.n) * d.groups * cblocks;
  const bool parallel = tasks > 1 && static_cast<std::int64_t>(col.bg_stride) *
                                             d.n * d.groups >=
                                         kParallelMinMacc;
  util::parallel_for_if(parallel, tasks, [&](std::size_t t) {
    const int c0 = static_cast<int>(t % cblocks) * kIm2colChannels;
    im2col_channels(in, d, spec, t / cblocks, c0,
                    std::min(d.cig, c0 + kIm2colChannels), col.owned);
  });
  return col;
}

void depthwise_forward(const float* in, const float* wgt, const float* bs,
                       const ConvDims& d, const Conv2dSpec& spec, float* out) {
  const int hw = d.h * d.w;
  const int ksq = d.k * d.k;
  const bool fast = fast_mode();
  const std::size_t planes = static_cast<std::size_t>(d.n) * d.co;
  const bool parallel =
      planes > 1 && static_cast<std::int64_t>(planes) * d.how * ksq >=
                        kParallelMinMacc;
  note_gemm_flops(static_cast<std::int64_t>(planes) * d.how * ksq);
  util::parallel_for_if(parallel, planes, [&](std::size_t t) {
    const int b = static_cast<int>(t) / d.co;
    const int c = static_cast<int>(t) % d.co;  // group == in ch == out ch
    const float* __restrict plane =
        in + (static_cast<std::ptrdiff_t>(b) * d.ci + c) * hw;
    const float* __restrict wrow =
        wgt + static_cast<std::ptrdiff_t>(c) * ksq;
    float* __restrict o =
        out + (static_cast<std::ptrdiff_t>(b) * d.co + c) * d.how;
    if (fast) {
      vec::depthwise_plane_f32(plane, wrow, bs ? bs[c] : 0.0f, d.h, d.w,
                               d.ho, d.wo, d.k, spec.stride, spec.padding, o);
      return;
    }
    const double init = bs ? static_cast<double>(bs[c]) : 0.0;
    for (int oy = 0; oy < d.ho; ++oy) {
      for (int ox = 0; ox < d.wo; ++ox) {
        double acc = init;
        for (int ky = 0; ky < d.k; ++ky) {
          const int iy = oy * spec.stride + ky - spec.padding;
          for (int kx = 0; kx < d.k; ++kx) {
            const int ix = ox * spec.stride + kx - spec.padding;
            const float v = (iy >= 0 && iy < d.h && ix >= 0 && ix < d.w)
                                ? plane[static_cast<std::ptrdiff_t>(iy) * d.w +
                                        ix]
                                : 0.0f;
            acc += static_cast<double>(v) * wrow[ky * d.k + kx];
          }
        }
        o[static_cast<std::ptrdiff_t>(oy) * d.wo + ox] =
            static_cast<float>(acc);
      }
    }
  });
}

void depthwise_backward(const float* in, const float* wgt, const float* go,
                        const ConvDims& d, const Conv2dSpec& spec,
                        bool has_bias, Conv2dGrads& grads) {
  const int hw = d.h * d.w;
  const int ksq = d.k * d.k;
  float* __restrict dw = grads.weight.data().data();
  float* __restrict din = grads.input.data().data();
  float* __restrict dbias = has_bias ? grads.bias.data().data() : nullptr;
  const std::size_t channels = static_cast<std::size_t>(d.co);
  const bool parallel =
      channels > 1 &&
      static_cast<std::int64_t>(d.n) * d.co * d.how * ksq >= kParallelMinMacc;
  util::parallel_for_if(parallel, channels, [&](std::size_t ct) {
    const int c = static_cast<int>(ct);
    const float* __restrict wrow =
        wgt + static_cast<std::ptrdiff_t>(c) * ksq;
    // dbias[c] over (b, oy, ox).
    if (dbias) {
      double acc = 0.0;
      for (int b = 0; b < d.n; ++b) {
        const float* __restrict gorow =
            go + (static_cast<std::ptrdiff_t>(b) * d.co + c) * d.how;
        for (int j = 0; j < d.how; ++j) acc += gorow[j];
      }
      dbias[c] = static_cast<float>(acc);
    }
    // dweight[c][ky][kx] over (b, oy, ox) with padded taps as zeros.
    for (int ky = 0; ky < d.k; ++ky) {
      for (int kx = 0; kx < d.k; ++kx) {
        double acc = 0.0;
        for (int b = 0; b < d.n; ++b) {
          const float* __restrict plane =
              in + (static_cast<std::ptrdiff_t>(b) * d.ci + c) * hw;
          const float* __restrict gorow =
              go + (static_cast<std::ptrdiff_t>(b) * d.co + c) * d.how;
          for (int oy = 0; oy < d.ho; ++oy) {
            const int iy = oy * spec.stride + ky - spec.padding;
            for (int ox = 0; ox < d.wo; ++ox) {
              const int ix = ox * spec.stride + kx - spec.padding;
              const float v = (iy >= 0 && iy < d.h && ix >= 0 && ix < d.w)
                                  ? plane[static_cast<std::ptrdiff_t>(iy) *
                                              d.w +
                                          ix]
                                  : 0.0f;
              acc += static_cast<double>(
                         gorow[static_cast<std::ptrdiff_t>(oy) * d.wo + ox]) *
                     v;
            }
          }
        }
        dw[static_cast<std::ptrdiff_t>(c) * ksq + ky * d.k + kx] =
            static_cast<float>(acc);
      }
    }
    // dinput[b][c][iy][ix] over (ky, kx); the group has one output channel,
    // so the reference's per-tap subtotal is a single product.
    for (int b = 0; b < d.n; ++b) {
      const float* __restrict gorow =
          go + (static_cast<std::ptrdiff_t>(b) * d.co + c) * d.how;
      float* __restrict dplane =
          din + (static_cast<std::ptrdiff_t>(b) * d.ci + c) * hw;
      for (int iy = 0; iy < d.h; ++iy) {
        for (int ix = 0; ix < d.w; ++ix) {
          double acc = 0.0;
          for (int ky = 0; ky < d.k; ++ky) {
            const int oy_num = iy + spec.padding - ky;
            if (oy_num < 0 || oy_num % spec.stride != 0) continue;
            const int oy = oy_num / spec.stride;
            if (oy >= d.ho) continue;
            for (int kx = 0; kx < d.k; ++kx) {
              const int ox_num = ix + spec.padding - kx;
              if (ox_num < 0 || ox_num % spec.stride != 0) continue;
              const int ox = ox_num / spec.stride;
              if (ox >= d.wo) continue;
              acc += static_cast<double>(wrow[ky * d.k + kx]) *
                     gorow[static_cast<std::ptrdiff_t>(oy) * d.wo + ox];
            }
          }
          dplane[static_cast<std::ptrdiff_t>(iy) * d.w + ix] =
              static_cast<float>(acc);
        }
      }
    }
  });
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  CADMC_SPAN("kernel_gemm");
  detail::check_rank2(a, "matmul a");
  detail::check_rank2(b, "matmul b");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul: inner dim mismatch");
  Tensor c({m, n});
  gemm_blocked(a.data().data(), k, b.data().data(), n, BLayout::kRowMajorKN,
               m, n, k, c.data().data(), n);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  CADMC_SPAN("kernel_gemm");
  detail::check_rank2(a, "matmul_tn a");
  detail::check_rank2(b, "matmul_tn b");
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul_tn: inner dim mismatch");
  Tensor c({m, n});
  // Pack A^T once into contiguous rows (caller arena, shared read-only by
  // the GEMM tasks); the pack cost is one column of compute.
  const float* pa = a.data().data();
  const auto at = ScratchArena::local().floats(
      ScratchArena::kPackA, static_cast<std::size_t>(m) * k);
  for (int kk = 0; kk < k; ++kk) {
    const float* __restrict src = pa + static_cast<std::ptrdiff_t>(kk) * m;
    for (int i = 0; i < m; ++i)
      at[static_cast<std::size_t>(i) * k + kk] = src[i];
  }
  gemm_blocked(at.data(), k, b.data().data(), n, BLayout::kRowMajorKN, m, n,
               k, c.data().data(), n);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  CADMC_SPAN("kernel_gemm");
  detail::check_rank2(a, "matmul_nt a");
  detail::check_rank2(b, "matmul_nt b");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) throw std::invalid_argument("matmul_nt: inner dim mismatch");
  Tensor c({m, n});
  gemm_blocked(a.data().data(), k, b.data().data(), k, BLayout::kRowMajorNK,
               m, n, k, c.data().data(), n);
  return c;
}

int conv_out_size(int in, int kernel, int stride, int padding) {
  const int span = in + 2 * padding - kernel;
  if (span < 0) return 0;  // window larger than padded input: empty output
  return span / stride + 1;
}

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              const Conv2dSpec& spec) {
  CADMC_SPAN("kernel_conv_forward");
  const ConvDims d = detail::check_conv_args(input, weight, bias, spec);
  Tensor out({d.n, d.co, d.ho, d.wo});
  const float* in = input.data().data();
  const float* wgt = weight.data().data();
  const float* bs = d.has_bias ? bias.data().data() : nullptr;
  float* o = out.data().data();

  if (is_depthwise(d)) {
    depthwise_forward(in, wgt, bs, d, spec, o);
    return out;
  }

  // Slice (b, g): the weight rows of group g are contiguous [co_per_g][kk];
  // the C rows are the output channel planes of (b, g). The im2col runs in
  // the GEMM's pack phase, one task per kIm2colChannels input channels of a
  // slice, so each block is packed while it is still in that core's cache.
  const ColMatrix col = col_matrix(in, d, spec);
  const int ksq = d.k * d.k;
  const auto slice_of = [&](std::size_t bg) {
    const int g = static_cast<int>(bg) % d.groups;
    const int b = static_cast<int>(bg) / d.groups;
    const std::ptrdiff_t oc0 = static_cast<std::ptrdiff_t>(g) * d.co_per_g;
    return GemmSlice{wgt + oc0 * d.kk, d.kk, col.slice(b, g, d.groups), d.how,
                     bs ? bs + oc0 : nullptr,
                     o + (static_cast<std::ptrdiff_t>(b) * d.co + oc0) * d.how,
                     d.how};
  };
  const std::size_t slices = static_cast<std::size_t>(d.n) * d.groups;
  if (col.owned)
    gemm_grid(slices, BLayout::kRowMajorKN, d.co_per_g, d.how, d.kk,
              kIm2colChannels * ksq, slice_of,
              [&](std::size_t bg, int k0, int k1) {
                im2col_channels(in, d, spec, bg, k0 / ksq, k1 / ksq,
                                col.owned);
              });
  else
    gemm_grid(slices, BLayout::kRowMajorKN, d.co_per_g, d.how, d.kk,
              kPackKBlock, slice_of, BInMemory{});
  return out;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            bool has_bias, const Tensor& grad_out,
                            const Conv2dSpec& spec) {
  CADMC_SPAN("kernel_conv_backward");
  const ConvDims d = detail::check_conv_args(
      input, weight, has_bias ? Tensor({weight.dim(0)}) : Tensor(), spec);
  if (grad_out.rank() != 4 || grad_out.dim(0) != d.n ||
      grad_out.dim(1) != d.co || grad_out.dim(2) != d.ho ||
      grad_out.dim(3) != d.wo)
    throw std::invalid_argument("conv2d_backward: grad_out shape mismatch");

  Conv2dGrads grads;
  grads.input = Tensor(input.shape());
  grads.weight = Tensor(weight.shape());
  if (has_bias) grads.bias = Tensor({d.co});

  const float* in = input.data().data();
  const float* wgt = weight.data().data();
  const float* go = grad_out.data().data();

  if (is_depthwise(d)) {
    depthwise_backward(in, wgt, go, d, spec, has_bias, grads);
    return grads;
  }

  const ColMatrix col = build_col_matrix(in, d, spec);
  const int hw = d.h * d.w;
  const bool fast = fast_mode();

  // dbias + dweight: one task per output channel. dW row oc is kk dots of
  // grad_out row (b, oc) against col rows, batch-major — the (b, j) operand
  // order of the reference. Fast mode runs the same dots as fp32 FMA
  // reductions (vec::dot_f32); dbias stays a double sum in both modes.
  float* dw = grads.weight.data().data();
  float* dbias = has_bias ? grads.bias.data().data() : nullptr;
  note_gemm_flops(static_cast<std::int64_t>(d.n) * d.co * d.kk * d.how);
  const bool parallel_w =
      d.co > 1 && static_cast<std::int64_t>(d.n) * d.co * d.kk * d.how >=
                      kParallelMinMacc;
  util::parallel_for_if(parallel_w, static_cast<std::size_t>(d.co),
                        [&](std::size_t oct) {
    const int oc = static_cast<int>(oct);
    const int g = oc / d.co_per_g;
    if (dbias) {
      double acc = 0.0;
      for (int b = 0; b < d.n; ++b) {
        const float* __restrict gorow =
            go + (static_cast<std::ptrdiff_t>(b) * d.co + oc) * d.how;
        for (int j = 0; j < d.how; ++j) acc += gorow[j];
      }
      dbias[oc] = static_cast<float>(acc);
    }
    float* __restrict dwrow = dw + static_cast<std::ptrdiff_t>(oc) * d.kk;
    for (int kk = 0; kk < d.kk; ++kk) {
      if (fast) {
        float acc = 0.0f;
        for (int b = 0; b < d.n; ++b)
          acc += vec::dot_f32(
              go + (static_cast<std::ptrdiff_t>(b) * d.co + oc) * d.how,
              col.slice(b, g, d.groups) +
                  static_cast<std::ptrdiff_t>(kk) * d.how,
              d.how);
        dwrow[kk] = acc;
        continue;
      }
      double acc = 0.0;
      for (int b = 0; b < d.n; ++b) {
        const float* __restrict gorow =
            go + (static_cast<std::ptrdiff_t>(b) * d.co + oc) * d.how;
        const float* __restrict colrow =
            col.slice(b, g, d.groups) +
            static_cast<std::ptrdiff_t>(kk) * d.how;
        for (int j = 0; j < d.how; ++j)
          acc += static_cast<double>(gorow[j]) * colrow[j];
      }
      dwrow[kk] = static_cast<float>(acc);
    }
  });

  // dinput: per (b, g) task — dcol = W_g^T x grad_out in double precision
  // (operand order: group output channels ascending per dcol element), then
  // a col2im gather where each input element owns one accumulator summing
  // its (ky, kx) taps ascending.
  float* din = grads.input.data().data();
  note_gemm_flops(static_cast<std::int64_t>(d.n) * d.groups * d.co_per_g *
                  d.kk * d.how);
  const std::size_t bg_tasks = static_cast<std::size_t>(d.n) * d.groups;
  const bool parallel_i =
      bg_tasks > 1 && static_cast<std::int64_t>(d.n) * d.groups *
                              d.co_per_g * d.kk * d.how >=
                          kParallelMinMacc;
  util::parallel_for_if(parallel_i, bg_tasks, [&](std::size_t t) {
    const int g = static_cast<int>(t) % d.groups;
    const int b = static_cast<int>(t) / d.groups;
    ScratchArena& arena = ScratchArena::local();
    const std::size_t dcol_elems =
        static_cast<std::size_t>(d.kk) * static_cast<std::size_t>(d.how);
    // Fast mode keeps the dcol buffer in fp32 (vec::axpy_f32 FMA updates);
    // the deterministic mode keeps its double-precision contract. The float
    // and double slots of the arena never alias.
    std::span<double> dcol_d;
    std::span<float> dcol_f;
    if (fast) {
      dcol_f = arena.floats(ScratchArena::kColGrad, dcol_elems);
      std::fill(dcol_f.begin(), dcol_f.end(), 0.0f);
    } else {
      dcol_d = arena.doubles(ScratchArena::kColGrad, dcol_elems);
      std::fill(dcol_d.begin(), dcol_d.end(), 0.0);
    }
    for (int ocg = 0; ocg < d.co_per_g; ++ocg) {
      const int oc = g * d.co_per_g + ocg;
      const float* __restrict wrow =
          wgt + static_cast<std::ptrdiff_t>(oc) * d.kk;
      const float* __restrict gorow =
          go + (static_cast<std::ptrdiff_t>(b) * d.co + oc) * d.how;
      for (int kk = 0; kk < d.kk; ++kk) {
        if (fast) {
          vec::axpy_f32(wrow[kk], gorow,
                        dcol_f.data() + static_cast<std::ptrdiff_t>(kk) * d.how,
                        d.how);
          continue;
        }
        const double av = wrow[kk];
        double* __restrict drow =
            dcol_d.data() + static_cast<std::ptrdiff_t>(kk) * d.how;
        for (int j = 0; j < d.how; ++j) drow[j] += av * gorow[j];
      }
    }
    // col2im gather: shared between modes; only the dcol element type
    // differs (the per-element sum of <= k*k taps stays double in both).
    const auto gather = [&](const auto* dcol) {
      for (int icg = 0; icg < d.cig; ++icg) {
        const int ic = g * d.cig + icg;
        float* __restrict dplane =
            din + (static_cast<std::ptrdiff_t>(b) * d.ci + ic) * hw;
        for (int iy = 0; iy < d.h; ++iy) {
          for (int ix = 0; ix < d.w; ++ix) {
            double acc = 0.0;
            for (int ky = 0; ky < d.k; ++ky) {
              const int oy_num = iy + spec.padding - ky;
              if (oy_num < 0 || oy_num % spec.stride != 0) continue;
              const int oy = oy_num / spec.stride;
              if (oy >= d.ho) continue;
              for (int kx = 0; kx < d.k; ++kx) {
                const int ox_num = ix + spec.padding - kx;
                if (ox_num < 0 || ox_num % spec.stride != 0) continue;
                const int ox = ox_num / spec.stride;
                if (ox >= d.wo) continue;
                acc += dcol[(static_cast<std::size_t>(icg) * d.k * d.k +
                             static_cast<std::size_t>(ky) * d.k + kx) *
                                d.how +
                            static_cast<std::size_t>(oy) * d.wo + ox];
              }
            }
            dplane[static_cast<std::ptrdiff_t>(iy) * d.w + ix] =
                static_cast<float>(acc);
          }
        }
      }
    };
    if (fast)
      gather(dcol_f.data());
    else
      gather(dcol_d.data());
  });
  return grads;
}

// Pooling, activation, loss and optimizer kernels live in ops_framework.cpp.

}  // namespace cadmc::tensor
