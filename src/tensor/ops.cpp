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
//  * gemm_grid fans every GEMM out as one grid of (slice, kIBlock-row
//    block, kJBlock-column block) tasks; a slice is one (batch, group) of a
//    conv or the whole matrix of a matmul. Row blocks give a batch-1 conv
//    with a small output map one task per 64 output channels. The packed
//    vs few-rows choice stays keyed on the whole GEMM's m, so a ragged last
//    row block runs the same kernels as the blocks before it.
//  * conv2d lowers to im2col + GEMM per (batch, group); 1x1 stride-1
//    unpadded convs skip the im2col copy entirely (the input already is the
//    column matrix) and depthwise convs use a direct per-channel loop.
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
// only the jw real columns of a zero-padded ragged panel are stored.
void micro_kernel(const float* __restrict a, const float* __restrict panel,
                  int k, int jw, double init, float* __restrict c) {
  double acc[kNR];
  for (int jj = 0; jj < kNR; ++jj) acc[jj] = init;
  for (int kk = 0; kk < k; ++kk) {
    const double av = a[kk];
    const float* __restrict brow =
        panel + static_cast<std::ptrdiff_t>(kk) * kNR;
    for (int jj = 0; jj < kNR; ++jj) acc[jj] += av * brow[jj];
  }
  for (int jj = 0; jj < jw; ++jj) c[jj] = static_cast<float>(acc[jj]);
}

// Computes C[i][jbegin..jend) for the m rows of one row block, with A rows
// contiguous (lda >= k). row_init may be null (zero init) or point at m
// per-row initial values (conv bias). `pack` is decided by the caller from
// the whole GEMM's row count, never from the block's, so a ragged last row
// block runs the same kernels as the rows before it. Runs inside one
// parallel task; only touches its own rows and columns.
void gemm_columns(GemmPath path, bool pack, const float* a, int lda,
                  const float* b, int ldb, BLayout layout, int m, int k,
                  const float* row_init, float* c, int ldc, int jbegin,
                  int jend) {
  if (path == GemmPath::kFast) {
    (pack ? vec::gemm_packed_f32 : vec::gemm_few_rows_f32)(
        a, lda, b, ldb, layout, m, k, row_init, c, ldc, jbegin, jend);
    return;
  }
  if (path == GemmPath::kExactVector && pack) {
    vec::gemm_packed_exact(a, lda, b, ldb, layout, m, k, row_init, c, ldc,
                           jbegin, jend);
    return;
  }
  ScratchArena& arena = ScratchArena::local();
  if (pack) {
    const auto panel = arena.floats(ScratchArena::kPanel,
                                    static_cast<std::size_t>(k) * kNR);
    for (int j0 = jbegin; j0 < jend; j0 += kNR) {
      const int jw = std::min(kNR, jend - j0);
      if (layout == BLayout::kRowMajorKN)
        pack_panel_kn(b, ldb, k, j0, jw, panel.data());
      else
        pack_panel_nk(b, ldb, k, j0, jw, panel.data());
      for (int i = 0; i < m; ++i)
        micro_kernel(a + static_cast<std::ptrdiff_t>(i) * lda, panel.data(),
                     k, jw, row_init ? static_cast<double>(row_init[i]) : 0.0,
                     c + static_cast<std::ptrdiff_t>(i) * ldc + j0);
    }
    return;
  }
  // Few rows: packing would cost as much as the math. KN streams B rows into
  // a double accumulator row (axpy style); NT rows are already contiguous
  // dot products. Per-element operand order is unchanged: k ascending.
  const int width = jend - jbegin;
  if (layout == BLayout::kRowMajorKN) {
    const auto accrow = arena.doubles(ScratchArena::kPanel,
                                      static_cast<std::size_t>(width));
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

// Runs `slices` m x n x k GEMMs, slice s on the operands slice_of(s), as one
// grid of (slice, kIBlock-row block, kJBlock-column block) tasks, so a
// batch-1 conv with few output columns still fans out over its rows. Every
// C element has one owner task and sums k ascending, so the bits depend on
// neither the thread count nor the row blocking.
template <class SliceOf>
void gemm_grid(std::size_t slices, BLayout layout, int m, int n, int k,
               const SliceOf& slice_of) {
  const std::int64_t macc = static_cast<std::int64_t>(slices) * m * n * k;
  note_gemm_flops(macc);
  const GemmPath path = gemm_path();
  const bool pack = m >= kPackMinRows;
  const std::size_t jblocks = (n + kJBlock - 1) / kJBlock;
  const std::size_t blocks = (m + kIBlock - 1) / kIBlock * jblocks;
  const std::size_t tasks = slices * blocks;
  util::parallel_for_if(
      macc >= kParallelMinMacc && tasks > 1, tasks, [&](std::size_t t) {
        const GemmSlice s = slice_of(t / blocks);
        const int ibegin = static_cast<int>(t % blocks / jblocks) * kIBlock;
        const int jbegin = static_cast<int>(t % jblocks) * kJBlock;
        const std::ptrdiff_t row = ibegin;
        gemm_columns(path, pack, s.a + row * s.lda, s.lda, s.b, s.ldb, layout,
                     std::min(m, ibegin + kIBlock) - ibegin, k,
                     s.row_init ? s.row_init + row : nullptr,
                     s.c + row * s.ldc, s.ldc, jbegin,
                     std::min(n, jbegin + kJBlock));
      });
}

// Full C = A * B: one slice of the task grid.
void gemm_blocked(const float* a, int lda, const float* b, int ldb,
                  BLayout layout, int m, int n, int k, float* c, int ldc) {
  gemm_grid(1, layout, m, n, k, [&](std::size_t) {
    return GemmSlice{a, lda, b, ldb, nullptr, c, ldc};
  });
}

// im2col for one (batch, group) slice: src is the [cig][h][w] input block,
// dst the [cig*k*k][ho*wo] column matrix with zero-filled padded taps. Row
// order (icg, ky, kx) is the accumulation order of the contract.
void im2col_slice(const float* __restrict src, const ConvDims& d,
                  const Conv2dSpec& spec, float* __restrict dst) {
  const int hw = d.h * d.w;
  for (int icg = 0; icg < d.cig; ++icg) {
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

bool is_pointwise(const ConvDims& d, const Conv2dSpec& spec) {
  return d.k == 1 && spec.padding == 0 && spec.stride == 1;
}

bool is_depthwise(const ConvDims& d) { return d.cig == 1 && d.co_per_g == 1; }

// Builds (or aliases) the [n*groups] stack of column matrices. For pointwise
// convs the input itself is the column matrix, so no copy happens. Returns
// the row pointer for (b, g): row kk is `col(b,g) + kk*how`.
struct ColMatrix {
  const float* base = nullptr;     // pointwise: input; else arena buffer
  std::ptrdiff_t bg_stride = 0;    // elements between (b,g) slices
  const float* slice(int b, int g, int groups) const {
    return base + (static_cast<std::ptrdiff_t>(b) * groups + g) * bg_stride;
  }
};

ColMatrix build_col_matrix(const float* in, const ConvDims& d,
                           const Conv2dSpec& spec) {
  ColMatrix col;
  if (is_pointwise(d, spec)) {
    // Input [n][ci][hw] viewed as n*groups slices of [cig][how]; how == hw.
    col.base = in;
    col.bg_stride = static_cast<std::ptrdiff_t>(d.cig) * d.how;
    return col;
  }
  const std::size_t slice_elems =
      static_cast<std::size_t>(d.kk) * static_cast<std::size_t>(d.how);
  const std::size_t total =
      slice_elems * static_cast<std::size_t>(d.n) * d.groups;
  // The caller's arena owns the matrix: it must outlive both fan-outs below,
  // and workers only ever read it.
  const auto buf = ScratchArena::local().floats(ScratchArena::kIm2col, total);
  note_im2col_bytes(static_cast<std::int64_t>(total * sizeof(float)));
  const int hw = d.h * d.w;
  const std::size_t slices = static_cast<std::size_t>(d.n) * d.groups;
  const bool parallel =
      slices > 1 &&
      static_cast<std::int64_t>(total) >= kParallelMinMacc;
  util::parallel_for_if(parallel, slices, [&](std::size_t t) {
    const int b = static_cast<int>(t) / d.groups;
    const int g = static_cast<int>(t) % d.groups;
    const float* src =
        in + (static_cast<std::ptrdiff_t>(b) * d.ci + g * d.cig) * hw;
    im2col_slice(src, d, spec, buf.data() + t * slice_elems);
  });
  col.base = buf.data();
  col.bg_stride = static_cast<std::ptrdiff_t>(slice_elems);
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

  const ColMatrix col = build_col_matrix(in, d, spec);
  // Slice (b, g): the weight rows of group g are contiguous [co_per_g][kk];
  // the C rows are the output channel planes of (b, g).
  gemm_grid(static_cast<std::size_t>(d.n) * d.groups, BLayout::kRowMajorKN,
            d.co_per_g, d.how, d.kk, [&](std::size_t bg) {
              const int g = static_cast<int>(bg) % d.groups;
              const int b = static_cast<int>(bg) / d.groups;
              const std::ptrdiff_t oc0 =
                  static_cast<std::ptrdiff_t>(g) * d.co_per_g;
              return GemmSlice{
                  wgt + oc0 * d.kk, d.kk, col.slice(b, g, d.groups), d.how,
                  bs ? bs + oc0 : nullptr,
                  o + (static_cast<std::ptrdiff_t>(b) * d.co + oc0) * d.how,
                  d.how};
            });
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
