// Dense tensor kernels: matrix multiplication, 2-D (grouped) convolution with
// full backward passes, pooling, ReLU-family activations, softmax /
// cross-entropy / distillation losses, and the SGD parameter update.
//
// The matmul family and conv2d/conv2d_backward are cache-blocked and
// thread-parallel: they route through one register-blocked GEMM micro-kernel
// (contiguous packed B-panels, `__restrict` pointers), convolutions lower to
// im2col/col2im around that kernel — with a pure-GEMM fast path for 1x1
// pointwise convs (no im2col copy) and a direct per-channel loop for
// depthwise convs — and scratch memory comes from the per-thread
// tensor::ScratchArena so repeated calls reuse buffers. Work is spread over
// util::parallel_for.
//
// Accumulation-precision policy (applies to every kernel in this header,
// in the default deterministic mode): each output element is one
// double-precision accumulator, summed in a fixed, documented operand order
// and rounded to float exactly once at the end. For
// matmul/matmul_tn/matmul_nt that order is k ascending; for conv2d it is
// (in-group channel, ky, kx) ascending with zero-padded taps included as
// explicit +0.0 terms and the bias as the accumulator's initial value; for
// the backward kernels see ops_reference.cpp, whose naive loops *define*
// the operand order. Because the order is per-element and never split across
// tasks, results are bit-identical to the reference kernels, identical for
// any thread count, and identical across the fast paths (the parity suite
// `ctest -L kernel` asserts all three).
//
// A second kernel mode exists (tensor/kernel_mode.h): `fast` swaps the
// double accumulators for AVX2/FMA fp32 vector kernels, validated against
// tensor::reference by tolerance (tests/compare.h) instead of
// bit-equality. The mode is resolved once per op entry and task ownership
// is unchanged, so fast results are still bit-identical across thread
// counts — only the deterministic-vs-reference bitwise guarantee is traded
// for speed.
//
// The framework ops below the conv family fall into three classes:
//  * Exact ops (maxpool forward/backward, relu forward/backward,
//    global_avgpool_backward): no accumulation rounding exists. relu and
//    the no-argmax maxpool forward run on AVX2 vector lanes in both modes
//    whenever the CPU has them, bitwise-identical to the scalar loops
//    (-0.0f and NaN included).
//  * Vectorized ops (avgpool2d, global_avgpool, sgd_update): the fast path
//    accumulates/updates in fp32 FMA and carries the tolerance contract.
//  * Deterministic-only ops (softmax/loss kernels): fast mode runs the
//    deterministic implementation and records a once-per-process
//    fast-fallback warning plus the cadmc.kernel.fast_fallbacks counter
//    (tensor/kernel_mode.h).
//
// The paper's latency numbers still come from the analytic model in
// src/latency, not from wall clock of these kernels — but these kernels are
// the real-compute floor of distillation-training candidate models and of
// executing edge slices, which is why they are blocked and parallel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace cadmc::tensor {

/// C[m,n] = A[m,k] * B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[m,n] = A^T[k,m]^T * B[k,n]  (i.e. a is [k,m], result [m,n]).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C[m,n] = A[m,k] * B^T where b is [n,k].
Tensor matmul_nt(const Tensor& a, const Tensor& b);

struct Conv2dSpec {
  int stride = 1;
  int padding = 0;
  int groups = 1;  // groups == in_channels gives a depthwise convolution
};

/// Output spatial size for one dimension.
int conv_out_size(int in, int kernel, int stride, int padding);

/// input [N,Ci,H,W], weight [Co,Ci/groups,K,K], bias [Co] (may be empty).
/// Returns [N,Co,Ho,Wo].
Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              const Conv2dSpec& spec);

struct Conv2dGrads {
  Tensor input;   // dL/dinput, same shape as input
  Tensor weight;  // dL/dweight
  Tensor bias;    // dL/dbias ([Co]; empty if no bias)
};

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            bool has_bias, const Tensor& grad_out,
                            const Conv2dSpec& spec);

/// Max pooling, input [N,C,H,W]. Windows are always fully in-bounds
/// (padding is 0 and conv_out_size floors), and the winner is the *first*
/// maximum in (ky, kx) scan order — the single-owner contract the backward
/// pass routes gradients by. `with_argmax=false` (inference) skips the
/// argmax bookkeeping and unlocks the vectorized row kernels; the output
/// values are bitwise-identical either way (max has no rounding).
struct MaxPoolResult {
  Tensor output;
  std::vector<std::int64_t> argmax;  // flat input index chosen per output cell
};
MaxPoolResult maxpool2d(const Tensor& input, int kernel, int stride,
                        bool with_argmax = true);
/// Routes each output-cell gradient to its recorded argmax element. Needs
/// only the forward argmax and the input *shape* — callers don't have to
/// retain the input tensor.
Tensor maxpool2d_backward(const Shape& input_shape,
                          const std::vector<std::int64_t>& argmax,
                          const Tensor& grad_out);

/// Average pooling over kernel x kernel windows (windows fully in-bounds).
Tensor avgpool2d(const Tensor& input, int kernel, int stride);

/// Global average pooling: [N,C,H,W] -> [N,C].
Tensor global_avgpool(const Tensor& input);
Tensor global_avgpool_backward(const Shape& input_shape,
                               const Tensor& grad_out);

/// Element-wise ReLU; cap > 0 additionally clamps to [0, cap] (ReLU6).
/// Exact in both kernel modes (no accumulation).
Tensor relu(const Tensor& input, float cap = 0.0f);
/// Backward of relu: passes grad where 0 < x (and x < cap when capped).
Tensor relu_backward(const Tensor& input, const Tensor& grad_out,
                     float cap = 0.0f);

/// Row-wise softmax of a [N,D] tensor (numerically stable).
Tensor softmax_rows(const Tensor& logits);

/// A scalar loss plus its gradient w.r.t. the logits (already averaged over
/// the batch).
struct RowLossResult {
  double loss = 0.0;
  Tensor grad;
};

/// Fused softmax + cross-entropy over [N,C] logits: loss is the mean
/// negative log-likelihood, grad is (softmax - onehot)/N. One pass, no
/// probability tensor materialized beyond the gradient itself. Per-row work
/// is independent (parallel); the per-row loss terms are summed serially in
/// row order, so the result is identical for any thread count.
RowLossResult softmax_xent_rows(const Tensor& logits,
                                const std::vector<int>& labels);

/// Fused distillation soft loss: T^2 * KL(p_T || q_T) with
/// q_T = softmax(student/T), p_T = softmax(teacher/T), and
/// grad = T*(q_T - p_T)/N. The temperature-softened probability rows live
/// in per-thread scratch — no [N,C] temporaries are allocated.
RowLossResult kd_softmax_rows(const Tensor& student_logits,
                              const Tensor& teacher_logits,
                              double temperature);

/// Fused SGD parameter update, one raw-pointer sweep per tensor:
///   g' = grad[j] + weight_decay * param[j]
///   velocity[j] = momentum * velocity[j] + g'   (when velocity is non-empty)
///   param[j]   -= lr * (velocity[j] | g')
/// Pass an empty velocity span for plain SGD. Each element is owned by one
/// task, so results are thread-count invariant; the fast path runs fused
/// FMA (vec::sgd_update_f32) under the tolerance contract.
void sgd_update(std::span<float> param, std::span<const float> grad,
                std::span<float> velocity, float lr, float momentum,
                float weight_decay);

/// Naive single-threaded loop-nest kernels implementing the same
/// element-wise accumulation spec as the blocked kernels above. They are the
/// executable definition of the determinism contract: the `ctest -L kernel`
/// parity suite asserts the blocked kernels are bit-identical to these for
/// randomized shapes, and they serve as the committed-baseline workload of
/// the kernel perf benches.
namespace reference {
Tensor matmul(const Tensor& a, const Tensor& b);
Tensor matmul_tn(const Tensor& a, const Tensor& b);
Tensor matmul_nt(const Tensor& a, const Tensor& b);
Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              const Conv2dSpec& spec);
Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            bool has_bias, const Tensor& grad_out,
                            const Conv2dSpec& spec);
MaxPoolResult maxpool2d(const Tensor& input, int kernel, int stride);
Tensor maxpool2d_backward(const Shape& input_shape,
                          const std::vector<std::int64_t>& argmax,
                          const Tensor& grad_out);
Tensor avgpool2d(const Tensor& input, int kernel, int stride);
Tensor global_avgpool(const Tensor& input);
Tensor global_avgpool_backward(const Shape& input_shape,
                               const Tensor& grad_out);
Tensor relu(const Tensor& input, float cap = 0.0f);
Tensor relu_backward(const Tensor& input, const Tensor& grad_out,
                     float cap = 0.0f);
Tensor softmax_rows(const Tensor& logits);
RowLossResult softmax_xent_rows(const Tensor& logits,
                                const std::vector<int>& labels);
RowLossResult kd_softmax_rows(const Tensor& student_logits,
                              const Tensor& teacher_logits,
                              double temperature);
void sgd_update(std::span<float> param, std::span<const float> grad,
                std::span<float> velocity, float lr, float momentum,
                float weight_decay);
}  // namespace reference

}  // namespace cadmc::tensor
