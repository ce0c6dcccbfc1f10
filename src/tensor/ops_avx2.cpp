// AVX2 + FMA kernels: the deterministic-contract GEMM tile and the fp32
// fast-mode kernels. This translation unit is the only one compiled with
// -mavx2 -mfma (see src/CMakeLists.txt), so every function here must stay
// behind the vec::available() runtime gate (cpuid) — on a CPU without AVX2
// the dispatcher in ops.cpp never calls in.
//
// Numerical contracts:
//  * gemm_packed_exact (deterministic mode): one double accumulator per
//    output element, k ascending, one rounding to float — bitwise equal to
//    tensor::reference. A float x float product is exact in double (24 + 24
//    significand bits < 53), so a vector FMA over double lanes rounds each
//    step exactly like the scalar `acc += double(a) * b`.
//  * Everything else (fast mode): fp32 accumulation, one 8-lane FMA per
//    (element, k) term, k ascending — the same operand order as the
//    deterministic kernels with the accumulator narrowed to float. Results
//    differ from tensor::reference by rounding (bounded by the tolerance
//    suite in kernel_test).
// Each output element is produced by exactly one caller task in both, so
// results are bitwise invariant to thread count.
//
// Both GEMMs share one tile driver over the kNR(=8)-column B panels that
// ops.cpp packs once per GEMM (double in deterministic mode, float in fast
// mode); a tile holds 4 C-rows x 8 C-columns — one fp32 ymm register per
// row in fast mode, two double ymm registers per row in deterministic mode.
#include "tensor/ops_vector.h"

#include <stdexcept>

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <type_traits>

namespace cadmc::tensor::vec {

bool compiled() { return true; }

bool cpu_supported() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool available() { return cpu_supported(); }

namespace {

using detail::kNR;

// Every panel is packed kNR elements wide (ragged ones zero-padded) and
// starts 64-byte aligned (ScratchArena::kAlignment); a kNR-float row is 32
// bytes and a kNR-double row 64, so aligned loads are safe on every row.
template <class P>
inline const P* panel_row(const P* panel, int kk) {
  return panel + static_cast<std::ptrdiff_t>(kk) * kNR;
}

// Deterministic-contract tile: C[r][0..kNR) for R rows, two double
// accumulators (columns 0-3 and 4-7) per row. Each lane starts at the row's
// init and adds a[r][kk] * panel[kk][j] for kk ascending. The panel holds B
// already widened to double, and a float x float product is exact in
// double, so the fused multiply-add rounds exactly as the scalar
// `acc += double(a) * b` of micro_kernel and tensor::reference. A rows are
// read four k at a time and widened once; a permute then broadcasts each
// lane, which costs less than a convert per element.
struct ExactTile {
  using Panel = double;
  template <int R>
  static void rows(const float* __restrict a, int lda,
                   const double* __restrict panel, int k, const float* init,
                   float* __restrict c, int ldc) {
    __m256d lo[R], hi[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
      lo[r] = hi[r] =
          _mm256_set1_pd(init ? static_cast<double>(init[r]) : 0.0);
    const auto step = [&](int kk, auto&& a_of) {
      const double* brow = panel_row(panel, kk);
      const __m256d blo = _mm256_load_pd(brow);
      const __m256d bhi = _mm256_load_pd(brow + 4);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const __m256d av = a_of(r);
        lo[r] = _mm256_fmadd_pd(av, blo, lo[r]);
        hi[r] = _mm256_fmadd_pd(av, bhi, hi[r]);
      }
    };
    int kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      __m256d a4[R];
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r)
        a4[r] = _mm256_cvtps_pd(
            _mm_loadu_ps(a + static_cast<std::ptrdiff_t>(r) * lda + kk));
      step(kk, [&](int r) { return _mm256_permute4x64_pd(a4[r], 0x00); });
      step(kk + 1, [&](int r) { return _mm256_permute4x64_pd(a4[r], 0x55); });
      step(kk + 2, [&](int r) { return _mm256_permute4x64_pd(a4[r], 0xAA); });
      step(kk + 3, [&](int r) { return _mm256_permute4x64_pd(a4[r], 0xFF); });
    }
    for (; kk < k; ++kk)
      step(kk, [&](int r) {
        return _mm256_set1_pd(static_cast<double>(
            a[static_cast<std::ptrdiff_t>(r) * lda + kk]));
      });
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      float* crow = c + static_cast<std::ptrdiff_t>(r) * ldc;
      _mm_storeu_ps(crow, _mm256_cvtpd_ps(lo[r]));
      _mm_storeu_ps(crow + 4, _mm256_cvtpd_ps(hi[r]));
    }
  }
};

// Fast-mode tile: one fp32 accumulator of kNR lanes per row, one FMA per
// (row, kk) term, kk ascending.
struct FastTile {
  using Panel = float;
  template <int R>
  static void rows(const float* __restrict a, int lda,
                   const float* __restrict panel, int k, const float* init,
                   float* __restrict c, int ldc) {
    __m256 acc[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
      acc[r] = init ? _mm256_set1_ps(init[r]) : _mm256_setzero_ps();
    for (int kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_load_ps(panel_row(panel, kk));
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r)
        acc[r] = _mm256_fmadd_ps(
            _mm256_set1_ps(a[static_cast<std::ptrdiff_t>(r) * lda + kk]), bv,
            acc[r]);
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
      _mm256_storeu_ps(c + static_cast<std::ptrdiff_t>(r) * ldc, acc[r]);
  }
};

// The one tile driver of both modes: C[i][0..cols) for the m rows of one
// row block, from the ceil(cols / kNR) panels that gemm_grid (ops.cpp)
// packed for the block's columns. Each 4-row tile (single rows for the
// remainder) sweeps all panels, so the A rows stream from memory once per
// call instead of once per panel. A ragged last panel (cols % kNR real
// columns) is zero-padded; its tile lands in a local buffer and only the
// real columns are copied out.
template <class Tile>
void gemm_packed(const float* a, int lda, const typename Tile::Panel* panels,
                 int m, int k, const float* row_init, float* c, int ldc,
                 int cols) {
  const std::ptrdiff_t panel_elems = static_cast<std::ptrdiff_t>(k) * kNR;
  const auto tile = [&](auto rows_tag, int i) {
    constexpr int R = decltype(rows_tag)::value;
    const float* arow = a + static_cast<std::ptrdiff_t>(i) * lda;
    const float* init = row_init ? row_init + i : nullptr;
    const auto* panel = panels;
    for (int j0 = 0; j0 < cols; j0 += kNR, panel += panel_elems) {
      const int jw = std::min(kNR, cols - j0);
      float* crow = c + static_cast<std::ptrdiff_t>(i) * ldc + j0;
      if (jw == kNR) {
        Tile::template rows<R>(arow, lda, panel, k, init, crow, ldc);
        continue;
      }
      float ragged[R][kNR];
      Tile::template rows<R>(arow, lda, panel, k, init, ragged[0], kNR);
      for (int r = 0; r < R; ++r)
        std::copy_n(ragged[r], jw,
                    crow + static_cast<std::ptrdiff_t>(r) * ldc);
    }
  };
  int i = 0;
  for (; i + 4 <= m; i += 4) tile(std::integral_constant<int, 4>{}, i);
  for (; i < m; ++i) tile(std::integral_constant<int, 1>{}, i);
}

}  // namespace

void gemm_packed_exact(const float* a, int lda, const double* panels, int m,
                       int k, const float* row_init, float* c, int ldc,
                       int cols) {
  gemm_packed<ExactTile>(a, lda, panels, m, k, row_init, c, ldc, cols);
}

void gemm_packed_f32(const float* a, int lda, const float* panels, int m,
                     int k, const float* row_init, float* c, int ldc,
                     int cols) {
  gemm_packed<FastTile>(a, lda, panels, m, k, row_init, c, ldc, cols);
}

void gemm_few_rows_f32(const float* a, int lda, const float* b, int ldb,
                       detail::BLayout layout, int m, int k,
                       const float* row_init, float* c, int ldc, int jbegin,
                       int jend) {
  // Packing would cost as much as the math. KN streams B rows with in-place
  // FMA on the C row (axpy style); NT rows are contiguous dots.
  const int width = jend - jbegin;
  if (layout == detail::BLayout::kRowMajorKN) {
    for (int i = 0; i < m; ++i) {
      float* __restrict crow =
          c + static_cast<std::ptrdiff_t>(i) * ldc + jbegin;
      const float init = row_init ? row_init[i] : 0.0f;
      for (int jj = 0; jj < width; ++jj) crow[jj] = init;
      const float* __restrict arow = a + static_cast<std::ptrdiff_t>(i) * lda;
      for (int kk = 0; kk < k; ++kk)
        axpy_f32(arow[kk], b + static_cast<std::ptrdiff_t>(kk) * ldb + jbegin,
                 crow, width);
    }
  } else {
    for (int i = 0; i < m; ++i) {
      const float init = row_init ? row_init[i] : 0.0f;
      const float* arow = a + static_cast<std::ptrdiff_t>(i) * lda;
      float* crow = c + static_cast<std::ptrdiff_t>(i) * ldc;
      for (int j = jbegin; j < jend; ++j)
        crow[j] =
            init + dot_f32(arow, b + static_cast<std::ptrdiff_t>(j) * ldb, k);
    }
  }
}

void depthwise_plane_f32(const float* plane, const float* taps, float bias,
                         int h, int w, int ho, int wo, int k, int stride,
                         int padding, float* out) {
  for (int oy = 0; oy < ho; ++oy) {
    float* __restrict orow = out + static_cast<std::ptrdiff_t>(oy) * wo;
    for (int ox = 0; ox < wo; ++ox) orow[ox] = bias;
    for (int ky = 0; ky < k; ++ky) {
      const int iy = oy * stride + ky - padding;
      if (iy < 0 || iy >= h) continue;
      const float* __restrict irow =
          plane + static_cast<std::ptrdiff_t>(iy) * w;
      for (int kx = 0; kx < k; ++kx) {
        const float tap = taps[ky * k + kx];
        if (stride == 1) {
          // Valid output columns: 0 <= ox + kx - padding < w.
          const int lo = std::max(0, padding - kx);
          const int hi = std::min(wo, w - kx + padding);
          const float* __restrict src = irow + kx - padding;
          const __m256 tv = _mm256_set1_ps(tap);
          int ox = lo;
          for (; ox + kNR <= hi; ox += kNR)
            _mm256_storeu_ps(
                orow + ox,
                _mm256_fmadd_ps(tv, _mm256_loadu_ps(src + ox),
                                _mm256_loadu_ps(orow + ox)));
          for (; ox < hi; ++ox) orow[ox] += tap * src[ox];
        } else {
          for (int ox = 0; ox < wo; ++ox) {
            const int ix = ox * stride + kx - padding;
            if (ix >= 0 && ix < w)
              orow[ox] += tap * irow[ix];
          }
        }
      }
    }
  }
}

void axpy_f32(float a, const float* x, float* y, int n) {
  const __m256 av = _mm256_set1_ps(a);
  int j = 0;
  for (; j + kNR <= n; j += kNR)
    _mm256_storeu_ps(
        y + j, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + j),
                               _mm256_loadu_ps(y + j)));
  for (; j < n; ++j) y[j] += a * x[j];
}

float dot_f32(const float* x, const float* y, int n) {
  __m256 acc = _mm256_setzero_ps();
  int j = 0;
  for (; j + kNR <= n; j += kNR)
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + j), _mm256_loadu_ps(y + j), acc);
  // Fixed-order lane reduction keeps repeated calls bit-identical.
  alignas(32) float lanes[kNR];
  _mm256_store_ps(lanes, acc);
  float total = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5])) +
                ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
  for (; j < n; ++j) total += x[j] * y[j];
  return total;
}

float sum_f32(const float* x, int n) {
  __m256 acc = _mm256_setzero_ps();
  int j = 0;
  for (; j + kNR <= n; j += kNR)
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + j));
  alignas(32) float lanes[kNR];
  _mm256_store_ps(lanes, acc);
  float total = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5])) +
                ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
  for (; j < n; ++j) total += x[j];
  return total;
}

void relu_f32(const float* x, float* y, std::int64_t n, float cap) {
  // `_mm256_max_ps(zero, v)` is `zero > v ? zero : v` and
  // `_mm256_min_ps(capv, v)` is `capv < v ? capv : v`: both return v on a
  // tie or a NaN, exactly like the scalar `if (v < 0) v = 0` and
  // `if (v > cap) v = cap`, so -0.0f and NaN pass through unchanged.
  const __m256 zero = _mm256_setzero_ps();
  const __m256 capv = _mm256_set1_ps(cap);
  const bool capped = cap > 0.0f;
  std::int64_t j = 0;
  for (; j + kNR <= n; j += kNR) {
    __m256 v = _mm256_max_ps(zero, _mm256_loadu_ps(x + j));
    if (capped) v = _mm256_min_ps(capv, v);
    _mm256_storeu_ps(y + j, v);
  }
  for (; j < n; ++j) {
    float v = x[j];
    if (v < 0.0f) v = 0.0f;
    if (capped && v > cap) v = cap;
    y[j] = v;
  }
}

namespace {

// Scalar window scan matching the deterministic first-max-wins contract;
// used for the ragged tail of each vectorized output row.
inline float maxpool_cell(const float* w0, int w, int kernel) {
  float best = w0[0];
  for (int ky = 0; ky < kernel; ++ky)
    for (int kx = 0; kx < kernel; ++kx) {
      const float v = w0[static_cast<std::ptrdiff_t>(ky) * w + kx];
      if (v > best) best = v;
    }
  return best;
}

inline float avgpool_cell(const float* w0, int w, int kernel, float inv) {
  float acc = 0.0f;
  for (int ky = 0; ky < kernel; ++ky)
    for (int kx = 0; kx < kernel; ++kx)
      acc += w0[static_cast<std::ptrdiff_t>(ky) * w + kx];
  return acc * inv;
}

}  // namespace

void maxpool_row_f32(const float* row0, int w, int kernel, int stride, int wo,
                     float* out) {
  // `_mm256_max_ps(candidate, acc)` returns acc on ties and when the
  // candidate is NaN — exactly the scalar `if (v > best)` scan — so the
  // vector path stays bitwise-identical even for ±0.0f and NaN inputs.
  int ox = 0;
  if (stride == 1) {
    for (; ox + kNR <= wo; ox += kNR) {
      const float* base = row0 + ox;
      __m256 acc = _mm256_loadu_ps(base);  // (ky=0, kx=0) seeds the scan
      for (int ky = 0; ky < kernel; ++ky) {
        const float* r = base + static_cast<std::ptrdiff_t>(ky) * w;
        for (int kx = ky == 0 ? 1 : 0; kx < kernel; ++kx)
          acc = _mm256_max_ps(_mm256_loadu_ps(r + kx), acc);
      }
      _mm256_storeu_ps(out + ox, acc);
    }
  } else {
    const __m256i idx = _mm256_setr_epi32(0, stride, 2 * stride, 3 * stride,
                                          4 * stride, 5 * stride, 6 * stride,
                                          7 * stride);
    for (; ox + kNR <= wo; ox += kNR) {
      const float* base = row0 + static_cast<std::ptrdiff_t>(ox) * stride;
      __m256 acc = _mm256_i32gather_ps(base, idx, 4);
      for (int ky = 0; ky < kernel; ++ky) {
        const float* r = base + static_cast<std::ptrdiff_t>(ky) * w;
        for (int kx = ky == 0 ? 1 : 0; kx < kernel; ++kx)
          acc = _mm256_max_ps(_mm256_i32gather_ps(r + kx, idx, 4), acc);
      }
      _mm256_storeu_ps(out + ox, acc);
    }
  }
  for (; ox < wo; ++ox)
    out[ox] = maxpool_cell(row0 + static_cast<std::ptrdiff_t>(ox) * stride, w,
                           kernel);
}

void avgpool_row_f32(const float* row0, int w, int kernel, int stride, int wo,
                     float inv, float* out) {
  const __m256 invv = _mm256_set1_ps(inv);
  int ox = 0;
  if (stride == 1) {
    for (; ox + kNR <= wo; ox += kNR) {
      const float* base = row0 + ox;
      __m256 acc = _mm256_setzero_ps();
      for (int ky = 0; ky < kernel; ++ky) {
        const float* r = base + static_cast<std::ptrdiff_t>(ky) * w;
        for (int kx = 0; kx < kernel; ++kx)
          acc = _mm256_add_ps(acc, _mm256_loadu_ps(r + kx));
      }
      _mm256_storeu_ps(out + ox, _mm256_mul_ps(acc, invv));
    }
  } else {
    const __m256i idx = _mm256_setr_epi32(0, stride, 2 * stride, 3 * stride,
                                          4 * stride, 5 * stride, 6 * stride,
                                          7 * stride);
    for (; ox + kNR <= wo; ox += kNR) {
      const float* base = row0 + static_cast<std::ptrdiff_t>(ox) * stride;
      __m256 acc = _mm256_setzero_ps();
      for (int ky = 0; ky < kernel; ++ky) {
        const float* r = base + static_cast<std::ptrdiff_t>(ky) * w;
        for (int kx = 0; kx < kernel; ++kx)
          acc = _mm256_add_ps(acc, _mm256_i32gather_ps(r + kx, idx, 4));
      }
      _mm256_storeu_ps(out + ox, _mm256_mul_ps(acc, invv));
    }
  }
  for (; ox < wo; ++ox)
    out[ox] = avgpool_cell(row0 + static_cast<std::ptrdiff_t>(ox) * stride, w,
                           kernel, inv);
}

void sgd_update_f32(float* p, const float* g, float* v, std::int64_t n,
                    float lr, float momentum, float weight_decay) {
  const __m256 wdv = _mm256_set1_ps(weight_decay);
  const __m256 mov = _mm256_set1_ps(momentum);
  const __m256 lrv = _mm256_set1_ps(lr);
  std::int64_t j = 0;
  if (v) {
    for (; j + kNR <= n; j += kNR) {
      __m256 pv = _mm256_loadu_ps(p + j);
      const __m256 grad = _mm256_fmadd_ps(wdv, pv, _mm256_loadu_ps(g + j));
      const __m256 vv = _mm256_fmadd_ps(mov, _mm256_loadu_ps(v + j), grad);
      pv = _mm256_fnmadd_ps(lrv, vv, pv);
      _mm256_storeu_ps(v + j, vv);
      _mm256_storeu_ps(p + j, pv);
    }
    for (; j < n; ++j) {
      const float grad = g[j] + weight_decay * p[j];
      v[j] = momentum * v[j] + grad;
      p[j] -= lr * v[j];
    }
  } else {
    for (; j + kNR <= n; j += kNR) {
      __m256 pv = _mm256_loadu_ps(p + j);
      const __m256 grad = _mm256_fmadd_ps(wdv, pv, _mm256_loadu_ps(g + j));
      pv = _mm256_fnmadd_ps(lrv, grad, pv);
      _mm256_storeu_ps(p + j, pv);
    }
    for (; j < n; ++j) {
      const float grad = g[j] + weight_decay * p[j];
      p[j] -= lr * grad;
    }
  }
}

}  // namespace cadmc::tensor::vec

#else  // !(__AVX2__ && __FMA__): stub build for non-x86 or old toolchains.

namespace cadmc::tensor::vec {

namespace {
[[noreturn]] void not_compiled() {
  throw std::logic_error(
      "tensor::vec: vector kernels were not compiled into this build");
}
}  // namespace

bool compiled() { return false; }
bool cpu_supported() { return false; }
bool available() { return false; }

void gemm_packed_exact(const float*, int, const double*, int, int,
                       const float*, float*, int, int) {
  not_compiled();
}

void gemm_packed_f32(const float*, int, const float*, int, int, const float*,
                     float*, int, int) {
  not_compiled();
}

void gemm_few_rows_f32(const float*, int, const float*, int, detail::BLayout,
                       int, int, const float*, float*, int, int, int) {
  not_compiled();
}

void depthwise_plane_f32(const float*, const float*, float, int, int, int,
                         int, int, int, int, float*) {
  not_compiled();
}

void axpy_f32(float, const float*, float*, int) { not_compiled(); }

float dot_f32(const float*, const float*, int) { not_compiled(); }

float sum_f32(const float*, int) { not_compiled(); }

void relu_f32(const float*, float*, std::int64_t, float) { not_compiled(); }

void maxpool_row_f32(const float*, int, int, int, int, float*) {
  not_compiled();
}

void avgpool_row_f32(const float*, int, int, int, int, float, float*) {
  not_compiled();
}

void sgd_update_f32(float*, const float*, float*, std::int64_t, float, float,
                    float) {
  not_compiled();
}

}  // namespace cadmc::tensor::vec

#endif
