// Naive reference kernels. These loop nests are the executable spec of the
// accumulation contract in ops.h: one double accumulator per output element,
// a fixed operand order, one final rounding to float. The blocked kernels in
// ops.cpp must stay bit-identical to these — tests/kernel_test.cpp
// (`ctest -L kernel`) fuzzes shapes/strides/padding/groups against them.
//
// Operand orders (per output element):
//   matmul family     k ascending.
//   conv2d forward    bias as initial value, then (icg, ky, kx) ascending;
//                     zero-padded taps contribute explicit +0.0 terms.
//   conv2d backward   dbias[oc]:   (b, oy, ox) ascending over grad_out.
//                     dweight:     (b, oy, ox) ascending; padded taps again
//                                  contribute 0.0 terms.
//                     dinput:      (ky, kx) ascending; each valid tap adds a
//                                  double subtotal over the group's output
//                                  channels (oc ascending) — the subtotal
//                                  mirrors the blocked path's dcol element,
//                                  which is also held in double.
//
// Framework ops (per output element):
//   maxpool2d         strictly-greater scan over (ky, kx) ascending; the
//                     FIRST maximum wins — the single-owner contract the
//                     backward pass routes each gradient by. Max has no
//                     rounding, so every mode is bitwise-identical here.
//   avgpool2d         double sum over (ky, kx) ascending, rounded to float
//                     once, then multiplied by the float 1/(k*k).
//   softmax family    per row: float max scan (j ascending), double
//                     denominator sum (j ascending), each probability
//                     rounded to float independently. Loss terms are per-row
//                     double subtotals summed in row order.
//   sgd_update        per element: g' = g + wd*p; v = m*v + g'; p -= lr*v —
//                     separate float ops (the TU builds with
//                     -ffp-contract=off, so nothing fuses).
#include <algorithm>
#include <cmath>

#include "tensor/ops.h"
#include "tensor/ops_detail.h"

namespace cadmc::tensor::reference {

using detail::ConvDims;
using detail::PoolDims;

Tensor matmul(const Tensor& a, const Tensor& b) {
  detail::check_rank2(a, "matmul a");
  detail::check_rank2(b, "matmul b");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul: inner dim mismatch");
  Tensor c({m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk)
        acc += static_cast<double>(pa[i * k + kk]) * pb[kk * n + j];
      pc[static_cast<std::ptrdiff_t>(i) * n + j] = static_cast<float>(acc);
    }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  detail::check_rank2(a, "matmul_tn a");
  detail::check_rank2(b, "matmul_tn b");
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul_tn: inner dim mismatch");
  Tensor c({m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk)
        acc += static_cast<double>(pa[kk * m + i]) * pb[kk * n + j];
      pc[static_cast<std::ptrdiff_t>(i) * n + j] = static_cast<float>(acc);
    }
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  detail::check_rank2(a, "matmul_nt a");
  detail::check_rank2(b, "matmul_nt b");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) throw std::invalid_argument("matmul_nt: inner dim mismatch");
  Tensor c({m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk)
        acc += static_cast<double>(pa[i * k + kk]) * pb[j * k + kk];
      pc[static_cast<std::ptrdiff_t>(i) * n + j] = static_cast<float>(acc);
    }
  return c;
}

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              const Conv2dSpec& spec) {
  const ConvDims d = detail::check_conv_args(input, weight, bias, spec);
  Tensor out({d.n, d.co, d.ho, d.wo});
  for (int b = 0; b < d.n; ++b) {
    for (int oc = 0; oc < d.co; ++oc) {
      const int g = oc / d.co_per_g;
      for (int oy = 0; oy < d.ho; ++oy) {
        for (int ox = 0; ox < d.wo; ++ox) {
          double acc = d.has_bias ? bias.at(oc) : 0.0;
          for (int icg = 0; icg < d.cig; ++icg) {
            const int ic = g * d.cig + icg;
            for (int ky = 0; ky < d.k; ++ky) {
              const int iy = oy * spec.stride + ky - spec.padding;
              for (int kx = 0; kx < d.k; ++kx) {
                const int ix = ox * spec.stride + kx - spec.padding;
                const float v = (iy >= 0 && iy < d.h && ix >= 0 && ix < d.w)
                                    ? input(b, ic, iy, ix)
                                    : 0.0f;
                acc += static_cast<double>(v) * weight(oc, icg, ky, kx);
              }
            }
          }
          out(b, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            bool has_bias, const Tensor& grad_out,
                            const Conv2dSpec& spec) {
  const ConvDims d =
      detail::check_conv_args(input, weight, has_bias ? Tensor({weight.dim(0)})
                                                      : Tensor(), spec);
  Conv2dGrads grads;
  grads.input = Tensor(input.shape());
  grads.weight = Tensor(weight.shape());
  if (has_bias) grads.bias = Tensor({d.co});

  // dbias[oc] = sum over (b, oy, ox) of grad_out.
  if (has_bias) {
    for (int oc = 0; oc < d.co; ++oc) {
      double acc = 0.0;
      for (int b = 0; b < d.n; ++b)
        for (int oy = 0; oy < d.ho; ++oy)
          for (int ox = 0; ox < d.wo; ++ox) acc += grad_out(b, oc, oy, ox);
      grads.bias.at(oc) = static_cast<float>(acc);
    }
  }

  // dweight[oc,icg,ky,kx] = sum over (b, oy, ox) of go * padded input tap.
  for (int oc = 0; oc < d.co; ++oc) {
    const int g = oc / d.co_per_g;
    for (int icg = 0; icg < d.cig; ++icg) {
      const int ic = g * d.cig + icg;
      for (int ky = 0; ky < d.k; ++ky)
        for (int kx = 0; kx < d.k; ++kx) {
          double acc = 0.0;
          for (int b = 0; b < d.n; ++b)
            for (int oy = 0; oy < d.ho; ++oy)
              for (int ox = 0; ox < d.wo; ++ox) {
                const int iy = oy * spec.stride + ky - spec.padding;
                const int ix = ox * spec.stride + kx - spec.padding;
                const float v = (iy >= 0 && iy < d.h && ix >= 0 && ix < d.w)
                                    ? input(b, ic, iy, ix)
                                    : 0.0f;
                acc += static_cast<double>(grad_out(b, oc, oy, ox)) * v;
              }
          grads.weight(oc, icg, ky, kx) = static_cast<float>(acc);
        }
    }
  }

  // dinput[b,ic,iy,ix] = sum over (ky, kx) of the group-channel subtotal.
  for (int b = 0; b < d.n; ++b) {
    for (int ic = 0; ic < d.ci; ++ic) {
      const int g = ic / d.cig;
      const int icg = ic % d.cig;
      for (int iy = 0; iy < d.h; ++iy)
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
              double sub = 0.0;
              for (int ocg = 0; ocg < d.co_per_g; ++ocg) {
                const int oc = g * d.co_per_g + ocg;
                sub += static_cast<double>(weight(oc, icg, ky, kx)) *
                       grad_out(b, oc, oy, ox);
              }
              acc += sub;
            }
          }
          grads.input(b, ic, iy, ix) = static_cast<float>(acc);
        }
    }
  }
  return grads;
}

MaxPoolResult maxpool2d(const Tensor& input, int kernel, int stride) {
  const PoolDims d = detail::check_pool_args(input, kernel, stride, "maxpool2d");
  MaxPoolResult result;
  result.output = Tensor({d.n, d.c, d.ho, d.wo});
  result.argmax.resize(static_cast<std::size_t>(result.output.numel()));
  std::int64_t out_idx = 0;
  for (int b = 0; b < d.n; ++b)
    for (int ch = 0; ch < d.c; ++ch)
      for (int oy = 0; oy < d.ho; ++oy)
        for (int ox = 0; ox < d.wo; ++ox) {
          const std::int64_t base =
              ((static_cast<std::int64_t>(b) * d.c + ch) * d.h + oy * stride) *
                  d.w +
              ox * stride;
          float best = input.at(base);
          std::int64_t best_idx = base;
          for (int ky = 0; ky < kernel; ++ky)
            for (int kx = 0; kx < kernel; ++kx) {
              const std::int64_t flat =
                  base + static_cast<std::int64_t>(ky) * d.w + kx;
              const float v = input.at(flat);
              if (v > best) {
                best = v;
                best_idx = flat;
              }
            }
          result.output.at(out_idx) = best;
          result.argmax[static_cast<std::size_t>(out_idx)] = best_idx;
          ++out_idx;
        }
  return result;
}

Tensor maxpool2d_backward(const Shape& input_shape,
                          const std::vector<std::int64_t>& argmax,
                          const Tensor& grad_out) {
  if (argmax.size() != static_cast<std::size_t>(grad_out.numel()))
    throw std::invalid_argument("maxpool2d_backward: argmax/grad size mismatch");
  Tensor grad_in(input_shape);
  for (std::int64_t i = 0; i < grad_out.numel(); ++i)
    grad_in.at(argmax[static_cast<std::size_t>(i)]) += grad_out.at(i);
  return grad_in;
}

Tensor avgpool2d(const Tensor& input, int kernel, int stride) {
  const PoolDims d = detail::check_pool_args(input, kernel, stride, "avgpool2d");
  Tensor out({d.n, d.c, d.ho, d.wo});
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  for (int b = 0; b < d.n; ++b)
    for (int ch = 0; ch < d.c; ++ch)
      for (int oy = 0; oy < d.ho; ++oy)
        for (int ox = 0; ox < d.wo; ++ox) {
          double acc = 0.0;
          for (int ky = 0; ky < kernel; ++ky)
            for (int kx = 0; kx < kernel; ++kx)
              acc += input(b, ch, oy * stride + ky, ox * stride + kx);
          out(b, ch, oy, ox) = static_cast<float>(acc) * inv;
        }
  return out;
}

Tensor global_avgpool(const Tensor& input) {
  if (input.rank() != 4)
    throw std::invalid_argument("global_avgpool: expected [N,C,H,W]");
  const int n = input.dim(0), c = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  Tensor out({n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch) {
      double acc = 0.0;
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) acc += input(b, ch, y, x);
      out(b, ch) = static_cast<float>(acc) * inv;
    }
  return out;
}

Tensor global_avgpool_backward(const Shape& input_shape,
                               const Tensor& grad_out) {
  Tensor grad_in(input_shape);
  const int n = input_shape[0], c = input_shape[1], h = input_shape[2],
            w = input_shape[3];
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch) {
      const float g = grad_out(b, ch) * inv;
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) grad_in(b, ch, y, x) = g;
    }
  return grad_in;
}

Tensor relu(const Tensor& input, float cap) {
  Tensor out = input;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    float v = out.at(i);
    if (v < 0.0f) v = 0.0f;
    if (cap > 0.0f && v > cap) v = cap;
    out.at(i) = v;
  }
  return out;
}

Tensor relu_backward(const Tensor& input, const Tensor& grad_out, float cap) {
  if (input.numel() != grad_out.numel())
    throw std::invalid_argument("relu_backward: shape mismatch");
  Tensor grad_in = grad_out;
  for (std::int64_t i = 0; i < grad_in.numel(); ++i) {
    const float x = input.at(i);
    const bool pass = x > 0.0f && (cap <= 0.0f || x < cap);
    if (!pass) grad_in.at(i) = 0.0f;
  }
  return grad_in;
}

Tensor softmax_rows(const Tensor& logits) {
  detail::check_rank2(logits, "softmax_rows");
  const int n = logits.dim(0), d = logits.dim(1);
  Tensor out(logits.shape());
  for (int i = 0; i < n; ++i) {
    float mx = logits(i, 0);
    for (int j = 1; j < d; ++j) mx = std::max(mx, logits(i, j));
    double denom = 0.0;
    for (int j = 0; j < d; ++j)
      denom += std::exp(static_cast<double>(logits(i, j)) - mx);
    for (int j = 0; j < d; ++j)
      out(i, j) = static_cast<float>(
          std::exp(static_cast<double>(logits(i, j)) - mx) / denom);
  }
  return out;
}

RowLossResult softmax_xent_rows(const Tensor& logits,
                                const std::vector<int>& labels) {
  detail::check_rank2(logits, "softmax_xent_rows");
  const int n = logits.dim(0), c = logits.dim(1);
  if (static_cast<int>(labels.size()) != n)
    throw std::invalid_argument("softmax_xent_rows: label count mismatch");
  for (int i = 0; i < n; ++i)
    if (labels[static_cast<std::size_t>(i)] < 0 ||
        labels[static_cast<std::size_t>(i)] >= c)
      throw std::invalid_argument("softmax_xent_rows: bad label");
  RowLossResult result;
  result.grad = Tensor({n, c});
  const float invn = 1.0f / static_cast<float>(n);
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    float mx = logits(i, 0);
    for (int j = 1; j < c; ++j) mx = std::max(mx, logits(i, j));
    double denom = 0.0;
    for (int j = 0; j < c; ++j)
      denom += std::exp(static_cast<double>(logits(i, j)) - mx);
    for (int j = 0; j < c; ++j)
      result.grad(i, j) = static_cast<float>(
          std::exp(static_cast<double>(logits(i, j)) - mx) / denom);
    const int y = labels[static_cast<std::size_t>(i)];
    loss -= std::log(
        std::max(1e-12, static_cast<double>(result.grad(i, y))));
    result.grad(i, y) -= 1.0f;
    for (int j = 0; j < c; ++j) result.grad(i, j) *= invn;
  }
  result.loss = loss / n;
  return result;
}

RowLossResult kd_softmax_rows(const Tensor& student_logits,
                              const Tensor& teacher_logits,
                              double temperature) {
  detail::check_rank2(student_logits, "kd_softmax_rows student");
  detail::check_rank2(teacher_logits, "kd_softmax_rows teacher");
  const int n = student_logits.dim(0), c = student_logits.dim(1);
  if (teacher_logits.dim(0) != n || teacher_logits.dim(1) != c)
    throw std::invalid_argument("kd_softmax_rows: shape mismatch");
  const float inv_t = static_cast<float>(1.0 / temperature);
  const float invn = 1.0f / static_cast<float>(n);
  RowLossResult result;
  result.grad = Tensor({n, c});
  std::vector<float> q(static_cast<std::size_t>(c));
  std::vector<float> p(static_cast<std::size_t>(c));
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto soften = [&](const Tensor& logits, std::vector<float>& out) {
      for (int j = 0; j < c; ++j)
        out[static_cast<std::size_t>(j)] = logits(i, j) * inv_t;
      float mx = out[0];
      for (int j = 1; j < c; ++j)
        mx = std::max(mx, out[static_cast<std::size_t>(j)]);
      double denom = 0.0;
      for (int j = 0; j < c; ++j)
        denom += std::exp(
            static_cast<double>(out[static_cast<std::size_t>(j)]) - mx);
      for (int j = 0; j < c; ++j)
        out[static_cast<std::size_t>(j)] = static_cast<float>(
            std::exp(static_cast<double>(out[static_cast<std::size_t>(j)]) -
                     mx) /
            denom);
    };
    soften(student_logits, q);
    soften(teacher_logits, p);
    double row = 0.0;
    for (int j = 0; j < c; ++j) {
      const double pij = p[static_cast<std::size_t>(j)];
      const double qij =
          std::max(1e-12, static_cast<double>(q[static_cast<std::size_t>(j)]));
      if (pij > 1e-12) row += pij * std::log(pij / qij);
      result.grad(i, j) = static_cast<float>(
          temperature *
          (q[static_cast<std::size_t>(j)] - p[static_cast<std::size_t>(j)]));
      result.grad(i, j) *= invn;
    }
    loss += row;
  }
  result.loss = loss * temperature * temperature / n;
  return result;
}

void sgd_update(std::span<float> param, std::span<const float> grad,
                std::span<float> velocity, float lr, float momentum,
                float weight_decay) {
  if (grad.size() != param.size() ||
      (!velocity.empty() && velocity.size() != param.size()))
    throw std::invalid_argument("sgd_update: size mismatch");
  const std::size_t n = param.size();
  if (!velocity.empty()) {
    for (std::size_t j = 0; j < n; ++j) {
      const float g = grad[j] + weight_decay * param[j];
      velocity[j] = momentum * velocity[j] + g;
      param[j] -= lr * velocity[j];
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      const float g = grad[j] + weight_decay * param[j];
      param[j] -= lr * g;
    }
  }
}

}  // namespace cadmc::tensor::reference
