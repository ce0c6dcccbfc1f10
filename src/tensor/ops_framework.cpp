// Blocked, thread-parallel framework ops: pooling, ReLU activations,
// softmax/cross-entropy/distillation losses, and the fused SGD update. These are the non-GEMM stages of the distillation
// training loop — after PR 9 vectorized the conv/GEMM kernels they became
// the top serial bottleneck in `cadmc profile`, so they now run on the same
// kernel infrastructure as the conv family (ops.cpp):
//
//  * util::parallel_for_if fan-out with every output element owned by
//    exactly one task — results are bit-identical for any thread count.
//  * The deterministic mode reproduces tensor::reference bit-for-bit (the
//    reference loop nests in ops_reference.cpp define the operand orders).
//  * Maxpool (without argmax) and relu have no rounding, so their vector
//    kernels (ops_avx2.cpp) are bitwise-identical to the scalar loops and
//    run in both modes whenever vec::available().
//  * kernel_mode() == kFast routes avgpool/global-avgpool rows and the SGD
//    update to the fp32 vector kernels under the tolerance contract; the
//    loss kernels are deterministic-only and record note_fast_fallback() so
//    fast-mode profiles can't silently mix modes.
//  * Large temporaries come from the per-thread ScratchArena (softened
//    probability rows, per-row loss subtotals) instead of per-call heap
//    allocations; gradients are written straight into their result tensors.
//  * CADMC_SPAN markers (kernel_pool / kernel_relu / kernel_loss /
//    kernel_sgd_step) let `cadmc profile` attribute each stage.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/span.h"
#include "tensor/kernel_mode.h"
#include "tensor/ops.h"
#include "tensor/ops_detail.h"
#include "tensor/ops_vector.h"
#include "tensor/scratch.h"
#include "util/thread_pool.h"

namespace cadmc::tensor {

namespace {

using detail::PoolDims;
using detail::kParallelMinMacc;

bool fast_mode() { return kernel_mode() == KernelMode::kFast; }

// Element-wise sweeps (relu, sgd) fan out in fixed blocks so element
// ownership — and therefore rounding — never depends on the thread count.
// A multiple of the 8-lane vector width keeps ragged tails off every block
// but the last.
constexpr std::int64_t kEltBlock = 1 << 15;

// exp/log cost far more than a multiply-add; weight the loss kernels' work
// estimate so realistic batch sizes clear the parallel threshold.
constexpr std::int64_t kExpCost = 16;

std::int64_t blocks_for(std::int64_t n) {
  return (n + kEltBlock - 1) / kEltBlock;
}

}  // namespace

MaxPoolResult maxpool2d(const Tensor& input, int kernel, int stride,
                        bool with_argmax) {
  CADMC_SPAN("kernel_pool");
  const PoolDims d = detail::check_pool_args(input, kernel, stride, "maxpool2d");
  MaxPoolResult result;
  result.output = Tensor({d.n, d.c, d.ho, d.wo});
  if (with_argmax)
    result.argmax.resize(static_cast<std::size_t>(result.output.numel()));
  // Max has no rounding, so the vector row kernel is bitwise-identical to
  // the scalar scan and runs in both modes whenever the CPU has it; it just
  // can't produce argmax, so training-mode forward (with_argmax) always runs
  // the scalar path. Either way the op is mode-neutral — no fast fallback
  // to record.
  const bool vector = vec::available() && !with_argmax;
  const float* in = input.data().data();
  float* out = result.output.data().data();
  std::int64_t* am = with_argmax ? result.argmax.data() : nullptr;
  const std::int64_t hw = static_cast<std::int64_t>(d.h) * d.w;
  const std::int64_t how = static_cast<std::int64_t>(d.ho) * d.wo;
  const std::size_t planes = static_cast<std::size_t>(d.n) * d.c;
  const bool parallel =
      planes > 1 && static_cast<std::int64_t>(planes) * how * kernel * kernel >=
                        kParallelMinMacc;
  util::parallel_for_if(parallel, planes, [&](std::size_t t) {
    const float* __restrict pl = in + static_cast<std::int64_t>(t) * hw;
    float* __restrict op = out + static_cast<std::int64_t>(t) * how;
    if (vector) {
      for (int oy = 0; oy < d.ho; ++oy)
        vec::maxpool_row_f32(
            pl + static_cast<std::ptrdiff_t>(oy) * stride * d.w, d.w, kernel,
            stride, d.wo, op + static_cast<std::ptrdiff_t>(oy) * d.wo);
      return;
    }
    const std::int64_t plane_base = static_cast<std::int64_t>(t) * hw;
    for (int oy = 0; oy < d.ho; ++oy)
      for (int ox = 0; ox < d.wo; ++ox) {
        const std::int64_t win =
            static_cast<std::int64_t>(oy) * stride * d.w + ox * stride;
        const float* __restrict w0 = pl + win;
        float best = w0[0];
        std::int64_t best_off = 0;
        for (int ky = 0; ky < kernel; ++ky)
          for (int kx = 0; kx < kernel; ++kx) {
            const float v = w0[static_cast<std::ptrdiff_t>(ky) * d.w + kx];
            if (v > best) {
              best = v;
              best_off = static_cast<std::int64_t>(ky) * d.w + kx;
            }
          }
        op[static_cast<std::ptrdiff_t>(oy) * d.wo + ox] = best;
        if (am)
          am[static_cast<std::int64_t>(t) * how +
             static_cast<std::int64_t>(oy) * d.wo + ox] =
              plane_base + win + best_off;
      }
  });
  return result;
}

Tensor maxpool2d_backward(const Shape& input_shape,
                          const std::vector<std::int64_t>& argmax,
                          const Tensor& grad_out) {
  CADMC_SPAN("kernel_pool");
  if (argmax.size() != static_cast<std::size_t>(grad_out.numel()))
    throw std::invalid_argument("maxpool2d_backward: argmax/grad size mismatch");
  if (grad_out.rank() != 4 || input_shape.size() != 4)
    throw std::invalid_argument("maxpool2d_backward: expected [N,C,H,W]");
  Tensor grad_in(input_shape);
  float* __restrict gi = grad_in.data().data();
  const float* __restrict go = grad_out.data().data();
  const std::int64_t how =
      static_cast<std::int64_t>(grad_out.dim(2)) * grad_out.dim(3);
  const std::size_t planes =
      static_cast<std::size_t>(grad_out.dim(0)) * grad_out.dim(1);
  // Every argmax index lives inside its own (b, c) plane, so plane tasks
  // scatter into disjoint ranges; within a plane the adds run in the same
  // (oy, ox) ascending order as the reference loop.
  const bool parallel = planes > 1 && grad_out.numel() >= kParallelMinMacc;
  util::parallel_for_if(parallel, planes, [&](std::size_t t) {
    const std::int64_t lo = static_cast<std::int64_t>(t) * how;
    for (std::int64_t i = lo; i < lo + how; ++i)
      gi[argmax[static_cast<std::size_t>(i)]] += go[i];
  });
  return grad_in;
}

Tensor avgpool2d(const Tensor& input, int kernel, int stride) {
  CADMC_SPAN("kernel_pool");
  const PoolDims d = detail::check_pool_args(input, kernel, stride, "avgpool2d");
  Tensor out({d.n, d.c, d.ho, d.wo});
  const bool fast = fast_mode();
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  const float* in = input.data().data();
  float* op = out.data().data();
  const std::int64_t hw = static_cast<std::int64_t>(d.h) * d.w;
  const std::int64_t how = static_cast<std::int64_t>(d.ho) * d.wo;
  const std::size_t planes = static_cast<std::size_t>(d.n) * d.c;
  const bool parallel =
      planes > 1 && static_cast<std::int64_t>(planes) * how * kernel * kernel >=
                        kParallelMinMacc;
  util::parallel_for_if(parallel, planes, [&](std::size_t t) {
    const float* __restrict pl = in + static_cast<std::int64_t>(t) * hw;
    float* __restrict o = op + static_cast<std::int64_t>(t) * how;
    if (fast) {
      for (int oy = 0; oy < d.ho; ++oy)
        vec::avgpool_row_f32(
            pl + static_cast<std::ptrdiff_t>(oy) * stride * d.w, d.w, kernel,
            stride, d.wo, inv, o + static_cast<std::ptrdiff_t>(oy) * d.wo);
      return;
    }
    for (int oy = 0; oy < d.ho; ++oy)
      for (int ox = 0; ox < d.wo; ++ox) {
        const float* __restrict w0 =
            pl + static_cast<std::int64_t>(oy) * stride * d.w + ox * stride;
        double acc = 0.0;
        for (int ky = 0; ky < kernel; ++ky)
          for (int kx = 0; kx < kernel; ++kx)
            acc += w0[static_cast<std::ptrdiff_t>(ky) * d.w + kx];
        o[static_cast<std::ptrdiff_t>(oy) * d.wo + ox] =
            static_cast<float>(acc) * inv;
      }
  });
  return out;
}

Tensor global_avgpool(const Tensor& input) {
  CADMC_SPAN("kernel_pool");
  if (input.rank() != 4)
    throw std::invalid_argument("global_avgpool: expected [N,C,H,W]");
  const int n = input.dim(0), c = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  Tensor out({n, c});
  const bool fast = fast_mode();
  const float inv = 1.0f / static_cast<float>(h * w);
  const float* in = input.data().data();
  float* op = out.data().data();
  const std::int64_t hw = static_cast<std::int64_t>(h) * w;
  const std::size_t planes = static_cast<std::size_t>(n) * c;
  const bool parallel = planes > 1 && input.numel() >= kParallelMinMacc;
  util::parallel_for_if(parallel, planes, [&](std::size_t t) {
    const float* __restrict pl = in + static_cast<std::int64_t>(t) * hw;
    if (fast) {
      op[t] = vec::sum_f32(pl, static_cast<int>(hw)) * inv;
      return;
    }
    double acc = 0.0;
    for (std::int64_t i = 0; i < hw; ++i) acc += pl[i];
    op[t] = static_cast<float>(acc) * inv;
  });
  return out;
}

Tensor global_avgpool_backward(const Shape& input_shape,
                               const Tensor& grad_out) {
  CADMC_SPAN("kernel_pool");
  if (input_shape.size() != 4)
    throw std::invalid_argument("global_avgpool_backward: expected [N,C,H,W]");
  Tensor grad_in(input_shape);
  const int h = input_shape[2], w = input_shape[3];
  const float inv = 1.0f / static_cast<float>(h * w);
  float* gi = grad_in.data().data();
  const float* go = grad_out.data().data();
  const std::int64_t hw = static_cast<std::int64_t>(h) * w;
  const std::size_t planes = static_cast<std::size_t>(grad_out.numel());
  const bool parallel = planes > 1 && grad_in.numel() >= kParallelMinMacc;
  util::parallel_for_if(parallel, planes, [&](std::size_t t) {
    float* __restrict gp = gi + static_cast<std::int64_t>(t) * hw;
    const float g = go[t] * inv;  // one float multiply — exact in every mode
    std::fill(gp, gp + hw, g);
  });
  return grad_in;
}

Tensor relu(const Tensor& input, float cap) {
  CADMC_SPAN("kernel_relu");
  Tensor out(input.shape());
  // Exact either way: the vector sweep runs in both modes for speed.
  const bool vector = vec::available();
  const float* in = input.data().data();
  float* op = out.data().data();
  const std::int64_t n = input.numel();
  const std::int64_t blocks = blocks_for(n);
  const bool parallel = blocks > 1 && n >= kParallelMinMacc;
  util::parallel_for_if(
      parallel, static_cast<std::size_t>(blocks), [&](std::size_t t) {
        const std::int64_t lo = static_cast<std::int64_t>(t) * kEltBlock;
        const std::int64_t len = std::min(kEltBlock, n - lo);
        if (vector) {
          vec::relu_f32(in + lo, op + lo, len, cap);
          return;
        }
        for (std::int64_t i = lo; i < lo + len; ++i) {
          float v = in[i];
          if (v < 0.0f) v = 0.0f;
          if (cap > 0.0f && v > cap) v = cap;
          op[i] = v;
        }
      });
  return out;
}

Tensor relu_backward(const Tensor& input, const Tensor& grad_out, float cap) {
  CADMC_SPAN("kernel_relu");
  if (input.numel() != grad_out.numel())
    throw std::invalid_argument("relu_backward: shape mismatch");
  Tensor grad_in(grad_out.shape());
  const float* in = input.data().data();
  const float* go = grad_out.data().data();
  float* gi = grad_in.data().data();
  const std::int64_t n = grad_out.numel();
  const std::int64_t blocks = blocks_for(n);
  const bool parallel = blocks > 1 && n >= kParallelMinMacc;
  // Pure mask selection — exact in every mode, nothing to vectorize by hand
  // (the compiler turns the branchless select into vector code).
  util::parallel_for_if(
      parallel, static_cast<std::size_t>(blocks), [&](std::size_t t) {
        const std::int64_t lo = static_cast<std::int64_t>(t) * kEltBlock;
        const std::int64_t len = std::min(kEltBlock, n - lo);
        for (std::int64_t i = lo; i < lo + len; ++i) {
          const float x = in[i];
          const bool pass = x > 0.0f && (cap <= 0.0f || x < cap);
          gi[i] = pass ? go[i] : 0.0f;
        }
      });
  return grad_in;
}

Tensor softmax_rows(const Tensor& logits) {
  CADMC_SPAN("kernel_loss");
  detail::check_rank2(logits, "softmax_rows");
  if (fast_mode()) note_fast_fallback("softmax_rows");
  const int n = logits.dim(0), d = logits.dim(1);
  Tensor out(logits.shape());
  const float* in = logits.data().data();
  float* op = out.data().data();
  const bool parallel =
      n > 1 &&
      static_cast<std::int64_t>(n) * d * kExpCost >= kParallelMinMacc;
  util::parallel_for_if(parallel, static_cast<std::size_t>(n),
                        [&](std::size_t i) {
    const float* __restrict x = in + static_cast<std::ptrdiff_t>(i) * d;
    float* __restrict o = op + static_cast<std::ptrdiff_t>(i) * d;
    float mx = x[0];
    for (int j = 1; j < d; ++j) mx = std::max(mx, x[j]);
    double denom = 0.0;
    for (int j = 0; j < d; ++j)
      denom += std::exp(static_cast<double>(x[j]) - mx);
    for (int j = 0; j < d; ++j)
      o[j] = static_cast<float>(std::exp(static_cast<double>(x[j]) - mx) /
                                denom);
  });
  return out;
}

RowLossResult softmax_xent_rows(const Tensor& logits,
                                const std::vector<int>& labels) {
  CADMC_SPAN("kernel_loss");
  detail::check_rank2(logits, "softmax_xent_rows");
  const int n = logits.dim(0), c = logits.dim(1);
  if (static_cast<int>(labels.size()) != n)
    throw std::invalid_argument("softmax_xent_rows: label count mismatch");
  for (int i = 0; i < n; ++i)
    if (labels[static_cast<std::size_t>(i)] < 0 ||
        labels[static_cast<std::size_t>(i)] >= c)
      throw std::invalid_argument("softmax_xent_rows: bad label");
  if (fast_mode()) note_fast_fallback("softmax_xent_rows");
  RowLossResult result;
  result.grad = Tensor({n, c});
  const float invn = 1.0f / static_cast<float>(n);
  const float* in = logits.data().data();
  float* gp = result.grad.data().data();
  // Caller-thread scratch; each row task writes exactly its own element and
  // the serial row-order sum below makes the loss thread-count invariant.
  const auto row_loss = ScratchArena::local().doubles(
      ScratchArena::kRowStat, static_cast<std::size_t>(n));
  const bool parallel =
      n > 1 &&
      static_cast<std::int64_t>(n) * c * kExpCost >= kParallelMinMacc;
  util::parallel_for_if(parallel, static_cast<std::size_t>(n),
                        [&](std::size_t i) {
    const float* __restrict x = in + static_cast<std::ptrdiff_t>(i) * c;
    float* __restrict g = gp + static_cast<std::ptrdiff_t>(i) * c;
    float mx = x[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, x[j]);
    double denom = 0.0;
    for (int j = 0; j < c; ++j)
      denom += std::exp(static_cast<double>(x[j]) - mx);
    for (int j = 0; j < c; ++j)
      g[j] = static_cast<float>(std::exp(static_cast<double>(x[j]) - mx) /
                                denom);
    const int y = labels[i];
    row_loss[i] =
        -std::log(std::max(1e-12, static_cast<double>(g[y])));
    g[y] -= 1.0f;
    for (int j = 0; j < c; ++j) g[j] *= invn;
  });
  double loss = 0.0;
  for (int i = 0; i < n; ++i) loss += row_loss[static_cast<std::size_t>(i)];
  result.loss = loss / n;
  return result;
}

RowLossResult kd_softmax_rows(const Tensor& student_logits,
                              const Tensor& teacher_logits,
                              double temperature) {
  CADMC_SPAN("kernel_loss");
  detail::check_rank2(student_logits, "kd_softmax_rows student");
  detail::check_rank2(teacher_logits, "kd_softmax_rows teacher");
  const int n = student_logits.dim(0), c = student_logits.dim(1);
  if (teacher_logits.dim(0) != n || teacher_logits.dim(1) != c)
    throw std::invalid_argument("kd_softmax_rows: shape mismatch");
  if (fast_mode()) note_fast_fallback("kd_softmax_rows");
  const float inv_t = static_cast<float>(1.0 / temperature);
  const float invn = 1.0f / static_cast<float>(n);
  RowLossResult result;
  result.grad = Tensor({n, c});
  const float* sp = student_logits.data().data();
  const float* tp = teacher_logits.data().data();
  float* gp = result.grad.data().data();
  const auto row_loss = ScratchArena::local().doubles(
      ScratchArena::kRowStat, static_cast<std::size_t>(n));
  const bool parallel =
      n > 1 &&
      static_cast<std::int64_t>(n) * c * 2 * kExpCost >= kParallelMinMacc;
  util::parallel_for_if(parallel, static_cast<std::size_t>(n),
                        [&](std::size_t i) {
    // Softened softmax into `dst`: scale by 1/T (float), then the standard
    // max-shifted double-denominator softmax — identical per-element ops to
    // softmax_rows over a pre-scaled tensor, with the [N,C] temporaries
    // replaced by one worker-local scratch row.
    const auto soften = [c, inv_t](const float* __restrict src,
                                   float* __restrict dst) {
      for (int j = 0; j < c; ++j) dst[j] = src[j] * inv_t;
      float mx = dst[0];
      for (int j = 1; j < c; ++j) mx = std::max(mx, dst[j]);
      double denom = 0.0;
      for (int j = 0; j < c; ++j)
        denom += std::exp(static_cast<double>(dst[j]) - mx);
      for (int j = 0; j < c; ++j)
        dst[j] = static_cast<float>(
            std::exp(static_cast<double>(dst[j]) - mx) / denom);
    };
    float* __restrict g = gp + static_cast<std::ptrdiff_t>(i) * c;
    const auto p_row = ScratchArena::local().floats(
        ScratchArena::kLossRow, static_cast<std::size_t>(c));
    soften(sp + static_cast<std::ptrdiff_t>(i) * c, g);  // q_T into grad row
    soften(tp + static_cast<std::ptrdiff_t>(i) * c, p_row.data());
    double row = 0.0;
    for (int j = 0; j < c; ++j) {
      const float qf = g[j], pf = p_row[static_cast<std::size_t>(j)];
      const double pij = pf;
      const double qij = std::max(1e-12, static_cast<double>(qf));
      if (pij > 1e-12) row += pij * std::log(pij / qij);
      g[j] = static_cast<float>(temperature * (qf - pf));
      g[j] *= invn;
    }
    row_loss[i] = row;
  });
  double loss = 0.0;
  for (int i = 0; i < n; ++i) loss += row_loss[static_cast<std::size_t>(i)];
  result.loss = loss * temperature * temperature / n;
  return result;
}

void sgd_update(std::span<float> param, std::span<const float> grad,
                std::span<float> velocity, float lr, float momentum,
                float weight_decay) {
  CADMC_SPAN("kernel_sgd_step");
  if (grad.size() != param.size() ||
      (!velocity.empty() && velocity.size() != param.size()))
    throw std::invalid_argument("sgd_update: size mismatch");
  const bool fast = fast_mode();
  float* p = param.data();
  const float* g = grad.data();
  float* v = velocity.empty() ? nullptr : velocity.data();
  const std::int64_t n = static_cast<std::int64_t>(param.size());
  const std::int64_t blocks = blocks_for(n);
  const bool parallel = blocks > 1 && n >= kParallelMinMacc;
  util::parallel_for_if(
      parallel, static_cast<std::size_t>(blocks), [&](std::size_t t) {
        const std::int64_t lo = static_cast<std::int64_t>(t) * kEltBlock;
        const std::int64_t len = std::min(kEltBlock, n - lo);
        if (fast) {
          vec::sgd_update_f32(p + lo, g + lo, v ? v + lo : nullptr, len, lr,
                              momentum, weight_decay);
          return;
        }
        if (v) {
          for (std::int64_t j = lo; j < lo + len; ++j) {
            const float gj = g[j] + weight_decay * p[j];
            v[j] = momentum * v[j] + gj;
            p[j] -= lr * v[j];
          }
        } else {
          for (std::int64_t j = lo; j < lo + len; ++j) {
            const float gj = g[j] + weight_decay * p[j];
            p[j] -= lr * gj;
          }
        }
      });
}

}  // namespace cadmc::tensor
