// Parity suite for the blocked compute kernels (`ctest -L kernel`).
//
// The naive loop nests in tensor::reference are the executable spec of the
// accumulation contract (ops.h): one double accumulator per output element,
// fixed operand order, one rounding to float. These tests assert the blocked
// kernels are *bit-identical* to that spec across randomized shapes, strides,
// padding, groups, the 1x1-pointwise and depthwise fast paths — and that
// results do not change with the configured thread count. CI additionally
// runs this binary under ASan/UBSan and TSan.
//
// The vector fast mode (tensor/kernel_mode.h) carries a weaker numeric
// contract — tolerance vs the same references via compare.h — but the
// same structural one: bitwise invariance to thread count. Every bitwise
// parity test pins deterministic mode explicitly so the suite stays green
// when CI exports CADMC_KERNEL_MODE=fast for the whole kernel label.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compare.h"
#include "obs/metrics.h"
#include "tensor/kernel_mode.h"
#include "tensor/ops.h"
#include "tensor/scratch.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cadmc::tensor {
namespace {

// Bitwise comparison: EXPECT_EQ on floats would treat -0.0f == 0.0f and
// NaN != NaN; the contract is stronger than numeric equality.
void expect_bit_identical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(a.numel(), b.numel()) << what;
  const int bad = [&] {
    int count = 0;
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      const float fa = a.at(i), fb = b.at(i);
      std::uint32_t ba, bb;
      std::memcpy(&ba, &fa, 4);
      std::memcpy(&bb, &fb, 4);
      if (ba != bb) ++count;
    }
    return count;
  }();
  EXPECT_EQ(bad, 0) << what << ": " << bad << "/" << a.numel()
                    << " elements differ bitwise";
}

struct ThreadGuard {
  std::size_t saved = util::configured_threads();
  ~ThreadGuard() { util::set_configured_threads(saved); }
};

// Pins the kernel mode for one test body, restoring env/default selection
// on exit. Bitwise tests pin kDeterministic so they keep passing when CI
// exports CADMC_KERNEL_MODE=fast for the whole binary.
struct ModeGuard {
  explicit ModeGuard(KernelMode mode) { set_kernel_mode(mode); }
  ~ModeGuard() { reset_kernel_mode(); }
};

TEST(KernelParity, MatmulFamilyRandomized) {
  ModeGuard mode(KernelMode::kDeterministic);
  util::Rng rng(0xA11CE);
  // Shapes straddle the packing (m >= 4) and parallel thresholds, plus
  // ragged tails that don't divide the kNR/kJBlock blocking.
  // {13, 1200, 4} and {6, 300, 1}: one zero-padded ragged panel, deep k,
  // and m % 4 != 0, so the vector tile's remainder rows run.
  const int dims[][3] = {{1, 7, 5},     {3, 16, 64},   {4, 4, 4},
                         {8, 33, 65},   {17, 40, 129}, {64, 64, 64},
                         {5, 1, 9},     {96, 31, 257}, {13, 1200, 4},
                         {6, 300, 1}};
  for (const auto& d : dims) {
    const int m = d[0], k = d[1], n = d[2];
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    const Tensor at = Tensor::randn({k, m}, rng);
    const Tensor bt = Tensor::randn({n, k}, rng);
    expect_bit_identical(matmul(a, b), reference::matmul(a, b), "matmul");
    expect_bit_identical(matmul_tn(at, b), reference::matmul_tn(at, b),
                         "matmul_tn");
    expect_bit_identical(matmul_nt(a, bt), reference::matmul_nt(a, bt),
                         "matmul_nt");
  }
}

struct ConvCase {
  int n, ci, h, w, co, k, stride, padding, groups;
  bool bias;
};

// Stride/padding/group sweep including both fast paths: 1x1 pointwise
// (k=1, s=1, p=0) and depthwise (groups == ci == co).
const ConvCase kConvCases[] = {
    {2, 3, 9, 9, 4, 3, 1, 1, 1, true},    // vanilla 3x3 pad-1
    {1, 4, 8, 8, 6, 3, 2, 1, 1, true},    // stride 2
    {2, 4, 7, 7, 4, 3, 1, 0, 2, true},    // grouped
    {1, 6, 6, 6, 6, 3, 1, 1, 6, true},    // depthwise
    {2, 8, 5, 5, 8, 3, 2, 1, 8, false},   // depthwise, stride 2, no bias
    {2, 5, 6, 6, 7, 1, 1, 0, 1, true},    // pointwise fast path
    {1, 8, 10, 10, 4, 1, 1, 0, 4, true},  // pointwise + groups
    {1, 3, 11, 11, 2, 5, 2, 2, 1, false}, // 5x5, stride 2, pad 2
    {3, 2, 4, 4, 2, 3, 1, 2, 1, true},    // padding > needed
    {1, 16, 16, 16, 24, 3, 1, 1, 1, true},// big enough to parallelize
    // VGG11's late maps: 2x2 and 1x1 outputs leave one ragged panel
    // (n = 4 or 1 < kNR) over k >= 1,000; co % 4 != 0 runs remainder rows.
    {1, 128, 2, 2, 20, 3, 1, 1, 1, true},
    {1, 64, 1, 1, 13, 3, 1, 1, 1, false},
};

TEST(KernelParity, Conv2dForwardRandomized) {
  ModeGuard mode(KernelMode::kDeterministic);
  util::Rng rng(0xC0DE);
  for (const auto& c : kConvCases) {
    const Tensor input = Tensor::randn({c.n, c.ci, c.h, c.w}, rng);
    const Tensor weight =
        Tensor::randn({c.co, c.ci / c.groups, c.k, c.k}, rng);
    const Tensor bias = c.bias ? Tensor::randn({c.co}, rng) : Tensor();
    const Conv2dSpec spec{c.stride, c.padding, c.groups};
    expect_bit_identical(conv2d(input, weight, bias, spec),
                         reference::conv2d(input, weight, bias, spec),
                         "conv2d");
  }
}

TEST(KernelParity, Conv2dBackwardRandomized) {
  ModeGuard mode(KernelMode::kDeterministic);
  util::Rng rng(0xBACD);
  for (const auto& c : kConvCases) {
    const Tensor input = Tensor::randn({c.n, c.ci, c.h, c.w}, rng);
    const Tensor weight =
        Tensor::randn({c.co, c.ci / c.groups, c.k, c.k}, rng);
    const Conv2dSpec spec{c.stride, c.padding, c.groups};
    const int ho = conv_out_size(c.h, c.k, c.stride, c.padding);
    const int wo = conv_out_size(c.w, c.k, c.stride, c.padding);
    const Tensor grad_out = Tensor::randn({c.n, c.co, ho, wo}, rng);
    const Conv2dGrads got =
        conv2d_backward(input, weight, c.bias, grad_out, spec);
    const Conv2dGrads want =
        reference::conv2d_backward(input, weight, c.bias, grad_out, spec);
    expect_bit_identical(got.input, want.input, "conv2d_backward input");
    expect_bit_identical(got.weight, want.weight, "conv2d_backward weight");
    if (c.bias)
      expect_bit_identical(got.bias, want.bias, "conv2d_backward bias");
  }
}

struct NamedConv {
  const char* what;
  Tensor input, weight, bias;
  Conv2dSpec spec;
};

// Batch-1 convs that fan out over output-channel row blocks alone: VGG11's
// conv4 (256 -> 256 on an 8x8 map: one column block, eight row blocks); a
// grouped conv with 50 rows per group — two row blocks, the second not a
// multiple of the 4-row tile — on a 2x2 map, whose one panel is ragged; and
// a grouped conv with 66 rows per group, split into two 32-row blocks and a
// ragged 2-row block, on a 3x3 map (one full and one ragged panel).
std::vector<NamedConv> batch1_convs(util::Rng& rng) {
  std::vector<NamedConv> convs;
  convs.push_back({"VGG11 conv4 batch 1",
                   Tensor::randn({1, 256, 8, 8}, rng, 0.3f),
                   Tensor::randn({256, 256, 3, 3}, rng, 0.05f),
                   Tensor::randn({256}, rng), Conv2dSpec{1, 1, 1}});
  convs.push_back({"ragged grouped conv batch 1",
                   Tensor::randn({1, 48, 2, 2}, rng),
                   Tensor::randn({100, 24, 3, 3}, rng),
                   Tensor::randn({100}, rng), Conv2dSpec{1, 1, 2}});
  convs.push_back({"ragged row block grouped conv batch 1",
                   Tensor::randn({1, 16, 3, 3}, rng),
                   Tensor::randn({132, 8, 3, 3}, rng),
                   Tensor::randn({132}, rng), Conv2dSpec{1, 1, 2}});
  return convs;
}

// Convs that exercise the once-per-GEMM panel packing and the
// channel-blocked im2col: a batch-3, groups-2 conv, whose six slices each
// read their own packed panels (the last one ragged, 100 = 12 * 8 + 4
// columns); and a batch-1 conv whose 40 input channels split into im2col
// blocks of 16, 16 and a ragged 8, large enough to fan out.
std::vector<NamedConv> pack_and_im2col_convs(util::Rng& rng) {
  std::vector<NamedConv> convs;
  convs.push_back({"batch 3 groups 2 conv", Tensor::randn({3, 8, 10, 10}, rng),
                   Tensor::randn({12, 4, 3, 3}, rng),
                   Tensor::randn({12}, rng), Conv2dSpec{1, 1, 2}});
  convs.push_back({"ragged im2col channel block batch 1",
                   Tensor::randn({1, 40, 16, 16}, rng),
                   Tensor::randn({48, 40, 3, 3}, rng, 0.2f),
                   Tensor::randn({48}, rng), Conv2dSpec{1, 1, 1}});
  return convs;
}

// Runs each conv at 1 and at 4 threads and asserts the two are bitwise
// equal; returns the 1-thread outputs.
std::vector<Tensor> expect_convs_thread_invariant(
    const std::vector<NamedConv>& convs) {
  std::vector<Tensor> one;
  util::set_configured_threads(1);
  for (const auto& c : convs)
    one.push_back(conv2d(c.input, c.weight, c.bias, c.spec));
  util::set_configured_threads(4);
  for (std::size_t i = 0; i < convs.size(); ++i) {
    const auto& c = convs[i];
    expect_bit_identical(one[i], conv2d(c.input, c.weight, c.bias, c.spec),
                         c.what);
  }
  return one;
}

TEST(KernelDeterminism, ThreadCountInvariance) {
  ModeGuard mode(KernelMode::kDeterministic);
  ThreadGuard guard;
  util::Rng rng(0x7EAD);
  const Tensor a = Tensor::randn({48, 70}, rng);
  const Tensor b = Tensor::randn({70, 200}, rng);
  const Tensor input = Tensor::randn({2, 8, 14, 14}, rng);
  const Tensor weight = Tensor::randn({16, 8, 3, 3}, rng);
  const Tensor bias = Tensor::randn({16}, rng);
  const Conv2dSpec spec{1, 1, 1};
  const Tensor grad_out = Tensor::randn({2, 16, 14, 14}, rng);
  // A VGG11-shaped layer: 256 channels over an 8x8 map (k = 2304); batch 2
  // gives the task grid two slices.
  const Tensor vgg_input = Tensor::randn({2, 256, 8, 8}, rng, 0.3f);
  const Tensor vgg_weight = Tensor::randn({256, 256, 3, 3}, rng, 0.05f);
  const Tensor vgg_bias = Tensor::randn({256}, rng);

  util::set_configured_threads(1);
  const Tensor mm1 = matmul(a, b);
  const Tensor conv1 = conv2d(input, weight, bias, spec);
  const Tensor vgg1 = conv2d(vgg_input, vgg_weight, vgg_bias, spec);
  const Conv2dGrads back1 = conv2d_backward(input, weight, true, grad_out, spec);

  util::set_configured_threads(4);
  const Tensor mm4 = matmul(a, b);
  const Tensor conv4 = conv2d(input, weight, bias, spec);
  const Tensor vgg4 = conv2d(vgg_input, vgg_weight, vgg_bias, spec);
  const Conv2dGrads back4 = conv2d_backward(input, weight, true, grad_out, spec);

  expect_bit_identical(mm1, mm4, "matmul threads 1 vs 4");
  expect_bit_identical(conv1, conv4, "conv2d threads 1 vs 4");
  expect_bit_identical(vgg1, vgg4, "VGG conv2d threads 1 vs 4");
  expect_bit_identical(vgg1,
                       reference::conv2d(vgg_input, vgg_weight, vgg_bias, spec),
                       "VGG conv2d vs reference");
  expect_bit_identical(back1.input, back4.input, "dinput threads 1 vs 4");
  expect_bit_identical(back1.weight, back4.weight, "dweight threads 1 vs 4");
  expect_bit_identical(back1.bias, back4.bias, "dbias threads 1 vs 4");

  for (const auto& convs : {batch1_convs(rng), pack_and_im2col_convs(rng)}) {
    const auto one = expect_convs_thread_invariant(convs);
    for (std::size_t i = 0; i < convs.size(); ++i) {
      const auto& c = convs[i];
      expect_bit_identical(
          one[i], reference::conv2d(c.input, c.weight, c.bias, c.spec),
          c.what);
    }
  }

  // A packed matmul_nt over two row blocks whose last panel is ragged
  // (67 = 8 * 8 + 3 columns).
  const Tensor nt_a = Tensor::randn({40, 300}, rng);
  const Tensor nt_b = Tensor::randn({67, 300}, rng);
  util::set_configured_threads(1);
  const Tensor nt1 = matmul_nt(nt_a, nt_b);
  util::set_configured_threads(4);
  expect_bit_identical(nt1, matmul_nt(nt_a, nt_b),
                       "ragged-panel matmul_nt threads 1 vs 4");
  expect_bit_identical(nt1, reference::matmul_nt(nt_a, nt_b),
                       "ragged-panel matmul_nt vs reference");
}

TEST(KernelValidation, ShapeErrors) {
  util::Rng rng(1);
  const Tensor a = Tensor::randn({3, 4}, rng);
  const Tensor b = Tensor::randn({5, 6}, rng);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  const Tensor input = Tensor::randn({1, 3, 8, 8}, rng);
  const Tensor weight = Tensor::randn({4, 3, 3, 3}, rng);
  const Tensor bad_grad = Tensor::randn({1, 4, 5, 5}, rng);  // wrong Ho/Wo
  EXPECT_THROW(
      conv2d_backward(input, weight, false, bad_grad, Conv2dSpec{1, 1, 1}),
      std::invalid_argument);
}

TEST(ScratchArena, ReusesAcrossShapes) {
  ScratchArena& arena = ScratchArena::local();
  arena.release();
  const auto big = arena.floats(ScratchArena::kIm2col, 4096);
  ASSERT_GE(big.size(), 4096u);
  const std::size_t cap = arena.capacity_bytes();
  EXPECT_GT(cap, 0u);
  // A smaller request for the same slot must reuse the buffer in place.
  const auto small = arena.floats(ScratchArena::kIm2col, 128);
  EXPECT_EQ(small.data(), big.data());
  EXPECT_EQ(arena.capacity_bytes(), cap);
  // Different slots and element types don't alias each other.
  const auto other = arena.floats(ScratchArena::kPanel, 128);
  EXPECT_NE(other.data(), small.data());
  const auto dbl = arena.doubles(ScratchArena::kIm2col, 128);
  EXPECT_NE(static_cast<const void*>(dbl.data()),
            static_cast<const void*>(small.data()));
  arena.release();
  EXPECT_EQ(arena.capacity_bytes(), 0u);
}

TEST(ScratchArena, CountsReuseInMetrics) {
  ScratchArena& arena = ScratchArena::local();
  arena.release();
  obs::MetricsRegistry::global().reset();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  arena.floats(ScratchArena::kPanel, 512);   // grow
  arena.floats(ScratchArena::kPanel, 256);   // reuse
  arena.floats(ScratchArena::kPanel, 512);   // reuse
  obs::set_enabled(was_enabled);
  const auto counters = obs::MetricsRegistry::global().counter_values();
  EXPECT_EQ(counters.at("cadmc.kernel.arena.grows"), 1);
  EXPECT_GE(counters.at("cadmc.kernel.arena.grow_bytes"),
            static_cast<std::int64_t>(512 * sizeof(float)));
  EXPECT_EQ(counters.at("cadmc.kernel.arena.reuse_hits"), 2);
  arena.release();
}

// Repeated conv calls over mixed shapes must stabilize the arena: after the
// first pass over all shapes no further growth should occur.
TEST(ScratchArena, ConvWorkloadStopsGrowing) {
  util::Rng rng(0x5CAB);
  std::vector<Tensor> inputs, weights;
  for (const auto& c : kConvCases) {
    inputs.push_back(Tensor::randn({c.n, c.ci, c.h, c.w}, rng));
    weights.push_back(Tensor::randn({c.co, c.ci / c.groups, c.k, c.k}, rng));
  }
  auto run_all = [&] {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto& c = kConvCases[i];
      conv2d(inputs[i], weights[i], Tensor(),
             Conv2dSpec{c.stride, c.padding, c.groups});
    }
  };
  ThreadGuard guard;
  util::set_configured_threads(1);  // all scratch lands on this thread
  ScratchArena::local().release();
  run_all();
  const std::size_t cap_after_first = ScratchArena::local().capacity_bytes();
  run_all();
  EXPECT_EQ(ScratchArena::local().capacity_bytes(), cap_after_first);
}

// The AVX2 micro-kernel issues aligned panel loads on the promise that every
// arena buffer starts at a 64-byte boundary. Regression test across all
// slots, both element types, and the grow/reuse lifecycle.
TEST(ScratchArena, BuffersAre64ByteAligned) {
  ScratchArena& arena = ScratchArena::local();
  arena.release();
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % ScratchArena::kAlignment == 0;
  };
  const ScratchArena::Slot slots[] = {ScratchArena::kIm2col,
                                      ScratchArena::kPanel,
                                      ScratchArena::kPackA,
                                      ScratchArena::kColGrad};
  for (const auto slot : slots) {
    EXPECT_TRUE(aligned(arena.floats(slot, 7).data()));    // fresh, odd size
    EXPECT_TRUE(aligned(arena.floats(slot, 4096).data())); // after growth
    EXPECT_TRUE(aligned(arena.floats(slot, 64).data()));   // reuse in place
    EXPECT_TRUE(aligned(arena.doubles(slot, 7).data()));
    EXPECT_TRUE(aligned(arena.doubles(slot, 4096).data()));
    EXPECT_TRUE(aligned(arena.doubles(slot, 64).data()));
  }
  arena.release();
}

TEST(KernelModeSelection, ParseKnownAnswers) {
  EXPECT_EQ(parse_kernel_mode("deterministic"), KernelMode::kDeterministic);
  EXPECT_EQ(parse_kernel_mode("fast"), KernelMode::kFast);
  EXPECT_EQ(parse_kernel_mode(""), std::nullopt);
  EXPECT_EQ(parse_kernel_mode("Fast"), std::nullopt);
  EXPECT_EQ(parse_kernel_mode("fastest"), std::nullopt);
  EXPECT_EQ(parse_kernel_mode(" fast"), std::nullopt);
  EXPECT_STREQ(kernel_mode_name(KernelMode::kDeterministic), "deterministic");
  EXPECT_STREQ(kernel_mode_name(KernelMode::kFast), "fast");
}

TEST(KernelModeSelection, OverrideBeatsEnvironmentAndDefault) {
  ModeGuard mode(KernelMode::kDeterministic);
  EXPECT_EQ(requested_kernel_mode(), KernelMode::kDeterministic);
  set_kernel_mode(KernelMode::kFast);
  EXPECT_EQ(requested_kernel_mode(), KernelMode::kFast);
  // The effective mode folds in hardware availability; it never reports
  // fast on a machine that cannot run the vector kernels.
  if (vector_kernels_available()) {
    EXPECT_EQ(kernel_mode(), KernelMode::kFast);
  } else {
    EXPECT_EQ(kernel_mode(), KernelMode::kDeterministic);
  }
}

TEST(KernelModeSelection, HonorsEnvironment) {
  const char* saved = std::getenv("CADMC_KERNEL_MODE");
  const std::string saved_value = saved ? saved : "";
  ::setenv("CADMC_KERNEL_MODE", "fast", 1);
  reset_kernel_mode();  // drop overrides, re-read the environment
  EXPECT_EQ(requested_kernel_mode(), KernelMode::kFast);
  ::setenv("CADMC_KERNEL_MODE", "deterministic", 1);
  reset_kernel_mode();
  EXPECT_EQ(requested_kernel_mode(), KernelMode::kDeterministic);
  if (saved) {
    ::setenv("CADMC_KERNEL_MODE", saved_value.c_str(), 1);
  } else {
    ::unsetenv("CADMC_KERNEL_MODE");
  }
  reset_kernel_mode();
}

TEST(CompareHelper, UlpDistanceKnownAnswers) {
  EXPECT_EQ(ulp_distance(1.0f, 1.0f), 0u);
  EXPECT_EQ(ulp_distance(0.0f, -0.0f), 0u);  // ±0 coincide on the ULP line
  EXPECT_EQ(ulp_distance(1.0f, std::nextafterf(1.0f, 2.0f)), 1u);
  EXPECT_EQ(ulp_distance(-1.0f, std::nextafterf(-1.0f, -2.0f)), 1u);
  // One step across zero: -denorm_min -> +0 -> +denorm_min is 2 ULP.
  const float denorm = std::numeric_limits<float>::denorm_min();
  EXPECT_EQ(ulp_distance(-denorm, denorm), 2u);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(ulp_distance(nan, 1.0f), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ulp_distance(nan, nan), std::numeric_limits<std::uint64_t>::max());
}

TEST(CompareHelper, ReportsFirstMismatchAndMaxima) {
  const float want[] = {1.0f, 2.0f, 3.0f, 4.0f};
  const float got[] = {1.0f, 2.5f, 3.0f, 4.5f};
  const CompareResult r = compare_close(got, want, 4, {1e-5, 1e-6});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.count, 4);
  EXPECT_EQ(r.mismatches, 2);
  EXPECT_EQ(r.first_mismatch, 1);
  EXPECT_FLOAT_EQ(r.first_got, 2.5f);
  EXPECT_FLOAT_EQ(r.first_want, 2.0f);
  EXPECT_EQ(r.max_rel_index, 1);  // 0.5/2 beats 0.5/4
  EXPECT_NEAR(r.max_rel_error, 0.25, 1e-12);
  EXPECT_GT(r.max_ulp, 0u);
  EXPECT_NE(r.summary().find("FAIL"), std::string::npos);
}

TEST(CompareHelper, ToleranceBoundaryIsInclusive) {
  const float want[] = {10.0f};
  const float beyond[] = {10.2f};
  // |got-want| <= abs_tol + rel_tol*|want| : 0.1 + 0.005*10 = 0.15.
  const float within[] = {10.14f};
  EXPECT_TRUE(compare_close(within, want, 1, {5e-3, 0.1}).ok);
  EXPECT_FALSE(compare_close(beyond, want, 1, {5e-3, 0.1}).ok);
}

TEST(CompareHelper, TensorShapeMismatchFailsWithoutThrowing) {
  util::Rng rng(7);
  const Tensor a = Tensor::randn({2, 3}, rng);
  const Tensor b = Tensor::randn({3, 2}, rng);
  const CompareResult r = compare_close(a, b, {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.count, -1);
  EXPECT_NE(r.summary().find("shape mismatch"), std::string::npos);
  const CompareResult same = compare_close(a, a, {});
  EXPECT_TRUE(same.ok);
  EXPECT_EQ(same.max_ulp, 0u);
}

// --- Fast (vectorized) mode -------------------------------------------------
// Tolerance contract: fp32 FMA accumulation drifts from the double-accumulated
// reference by roughly k*eps_f32 per dot product; rel 1e-3 is ~100x headroom
// for the k<=257 shapes below while still catching indexing/packing bugs,
// which produce O(1) errors.

constexpr CompareTolerance kFastTol{1e-3, 1e-3};

void expect_close(const Tensor& got, const Tensor& want, const char* what) {
  const CompareResult r = compare_close(got, want, kFastTol);
  EXPECT_TRUE(r.ok) << what << ": " << r.summary();
}

#define SKIP_WITHOUT_VECTOR_KERNELS()                                       \
  if (!vector_kernels_available()) {                                        \
    GTEST_SKIP() << "vector kernels unavailable ("                          \
                 << (vector_kernels_compiled() ? "no AVX2/FMA cpu"          \
                                              : "not compiled")            \
                 << ")";                                                    \
  }

TEST(FastKernels, MatmulFamilyWithinTolerance) {
  SKIP_WITHOUT_VECTOR_KERNELS();
  ModeGuard mode(KernelMode::kFast);
  ASSERT_EQ(kernel_mode(), KernelMode::kFast);
  util::Rng rng(0xFA57);
  const int dims[][3] = {{1, 7, 5},     {3, 16, 64},   {4, 4, 4},
                         {8, 33, 65},   {17, 40, 129}, {64, 64, 64},
                         {5, 1, 9},     {96, 31, 257}, {13, 1200, 4},
                         {6, 300, 1}};
  for (const auto& d : dims) {
    const int m = d[0], k = d[1], n = d[2];
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    const Tensor at = Tensor::randn({k, m}, rng);
    const Tensor bt = Tensor::randn({n, k}, rng);
    expect_close(matmul(a, b), reference::matmul(a, b), "fast matmul");
    expect_close(matmul_tn(at, b), reference::matmul_tn(at, b),
                 "fast matmul_tn");
    expect_close(matmul_nt(a, bt), reference::matmul_nt(a, bt),
                 "fast matmul_nt");
  }
}

TEST(FastKernels, Conv2dForwardWithinTolerance) {
  SKIP_WITHOUT_VECTOR_KERNELS();
  ModeGuard mode(KernelMode::kFast);
  util::Rng rng(0xFACE);
  for (const auto& c : kConvCases) {
    const Tensor input = Tensor::randn({c.n, c.ci, c.h, c.w}, rng);
    const Tensor weight =
        Tensor::randn({c.co, c.ci / c.groups, c.k, c.k}, rng);
    const Tensor bias = c.bias ? Tensor::randn({c.co}, rng) : Tensor();
    const Conv2dSpec spec{c.stride, c.padding, c.groups};
    expect_close(conv2d(input, weight, bias, spec),
                 reference::conv2d(input, weight, bias, spec), "fast conv2d");
  }
}

TEST(FastKernels, Conv2dBackwardWithinTolerance) {
  SKIP_WITHOUT_VECTOR_KERNELS();
  ModeGuard mode(KernelMode::kFast);
  util::Rng rng(0xFAB5);
  for (const auto& c : kConvCases) {
    const Tensor input = Tensor::randn({c.n, c.ci, c.h, c.w}, rng);
    const Tensor weight =
        Tensor::randn({c.co, c.ci / c.groups, c.k, c.k}, rng);
    const Conv2dSpec spec{c.stride, c.padding, c.groups};
    const int ho = conv_out_size(c.h, c.k, c.stride, c.padding);
    const int wo = conv_out_size(c.w, c.k, c.stride, c.padding);
    const Tensor grad_out = Tensor::randn({c.n, c.co, ho, wo}, rng);
    const Conv2dGrads got =
        conv2d_backward(input, weight, c.bias, grad_out, spec);
    const Conv2dGrads want =
        reference::conv2d_backward(input, weight, c.bias, grad_out, spec);
    expect_close(got.input, want.input, "fast conv2d_backward input");
    expect_close(got.weight, want.weight, "fast conv2d_backward weight");
    if (c.bias)
      expect_close(got.bias, want.bias, "fast conv2d_backward bias");
  }
}

// Fast mode trades the bitwise-vs-reference contract for speed, but keeps
// the bitwise thread-count invariance: each output element is produced by
// exactly one task in a fixed operand order regardless of worker count.
TEST(FastKernels, ThreadCountInvariance) {
  SKIP_WITHOUT_VECTOR_KERNELS();
  ModeGuard mode(KernelMode::kFast);
  ThreadGuard guard;
  util::Rng rng(0xF17E);
  const Tensor a = Tensor::randn({48, 70}, rng);
  const Tensor b = Tensor::randn({70, 200}, rng);
  const Tensor input = Tensor::randn({2, 8, 14, 14}, rng);
  const Tensor weight = Tensor::randn({16, 8, 3, 3}, rng);
  const Tensor bias = Tensor::randn({16}, rng);
  const Conv2dSpec spec{1, 1, 1};
  const Tensor grad_out = Tensor::randn({2, 16, 14, 14}, rng);

  util::set_configured_threads(1);
  const Tensor mm1 = matmul(a, b);
  const Tensor conv1 = conv2d(input, weight, bias, spec);
  const Conv2dGrads back1 =
      conv2d_backward(input, weight, true, grad_out, spec);

  util::set_configured_threads(4);
  const Tensor mm4 = matmul(a, b);
  const Tensor conv4 = conv2d(input, weight, bias, spec);
  const Conv2dGrads back4 =
      conv2d_backward(input, weight, true, grad_out, spec);

  expect_bit_identical(mm1, mm4, "fast matmul threads 1 vs 4");
  expect_bit_identical(conv1, conv4, "fast conv2d threads 1 vs 4");
  expect_bit_identical(back1.input, back4.input, "fast dinput threads 1 vs 4");
  expect_bit_identical(back1.weight, back4.weight,
                       "fast dweight threads 1 vs 4");
  expect_bit_identical(back1.bias, back4.bias, "fast dbias threads 1 vs 4");

  expect_convs_thread_invariant(batch1_convs(rng));
  expect_convs_thread_invariant(pack_and_im2col_convs(rng));

  // A packed matmul_nt over two row blocks whose last panel is ragged.
  const Tensor nt_a = Tensor::randn({40, 300}, rng);
  const Tensor nt_b = Tensor::randn({67, 300}, rng);
  util::set_configured_threads(1);
  const Tensor nt1 = matmul_nt(nt_a, nt_b);
  util::set_configured_threads(4);
  expect_bit_identical(nt1, matmul_nt(nt_a, nt_b),
                       "fast ragged-panel matmul_nt threads 1 vs 4");
}

// The packed-vs-few-rows choice follows the whole GEMM's row count: a
// ragged last row block of 2 rows still runs the packed tile, so its rows
// carry the same bits as in a 6-row GEMM (NT layout: the few-row path would
// run fp32 dot products in another order).
TEST(FastKernels, RaggedRowBlockKeepsThePackedPath) {
  SKIP_WITHOUT_VECTOR_KERNELS();
  ModeGuard mode(KernelMode::kFast);
  ThreadGuard guard;
  util::set_configured_threads(4);
  util::Rng rng(0xB10C);
  const Tensor a = Tensor::randn({66, 300}, rng);
  const Tensor bt = Tensor::randn({20, 300}, rng);
  Tensor tail({6, 300});
  std::copy_n(a.data().data() + 60 * 300, 6 * 300, tail.data().data());
  const Tensor whole = matmul_nt(a, bt);
  const Tensor part = matmul_nt(tail, bt);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 20; ++j)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(whole.at((60 + i) * 20 + j)),
                std::bit_cast<std::uint32_t>(part.at(i * 20 + j)))
          << "row " << 60 + i << " col " << j;
}

// --- Framework ops: pooling, activations, loss, SGD -------------------------

struct PoolCase {
  int n, c, h, w, kernel, stride;
};

// Includes overlapping windows (kernel > stride), 1x1 spatial inputs, a
// whole-input window, ragged non-divisible shapes, and a wo >= 8 case that
// exercises the full-width vector row path.
const PoolCase kPoolCases[] = {
    {1, 1, 4, 4, 2, 2},    // basic non-overlapping
    {2, 3, 9, 9, 3, 2},    // ragged: 9 = 3 + 2*3
    {1, 2, 5, 5, 3, 1},    // overlapping: kernel > stride
    {1, 1, 1, 1, 1, 1},    // 1x1 spatial, 1x1 window
    {1, 1, 7, 7, 7, 7},    // window covers the whole input
    {1, 2, 12, 12, 3, 1},  // wo = 10 >= 8: vector row main loop + tail
    {2, 4, 16, 16, 2, 2},  // large enough to fan out
};

TEST(KernelParity, PoolingFamilyRandomized) {
  ModeGuard mode(KernelMode::kDeterministic);
  util::Rng rng(0x900D);
  for (const auto& p : kPoolCases) {
    const Tensor input = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
    const auto got = maxpool2d(input, p.kernel, p.stride);
    const auto want = reference::maxpool2d(input, p.kernel, p.stride);
    expect_bit_identical(got.output, want.output, "maxpool2d");
    EXPECT_EQ(got.argmax, want.argmax) << "maxpool2d argmax";

    const Tensor grad_out = Tensor::randn(got.output.shape(), rng);
    expect_bit_identical(
        maxpool2d_backward(input.shape(), got.argmax, grad_out),
        reference::maxpool2d_backward(input.shape(), want.argmax, grad_out),
        "maxpool2d_backward");

    expect_bit_identical(avgpool2d(input, p.kernel, p.stride),
                         reference::avgpool2d(input, p.kernel, p.stride),
                         "avgpool2d");

    expect_bit_identical(global_avgpool(input), reference::global_avgpool(input),
                         "global_avgpool");
    const Tensor gap_grad = Tensor::randn({p.n, p.c}, rng);
    expect_bit_identical(
        global_avgpool_backward(input.shape(), gap_grad),
        reference::global_avgpool_backward(input.shape(), gap_grad),
        "global_avgpool_backward");
  }
}

// The single-owner gradient contract: on ties the FIRST maximum in the
// (ky, kx) ascending scan owns the whole gradient — no splitting, no
// last-wins drift between kernels.
TEST(KernelParity, MaxPoolTieRoutesToFirstWindowElement) {
  ModeGuard mode(KernelMode::kDeterministic);
  Tensor input({1, 1, 2, 2});
  for (int i = 0; i < 4; ++i) input.at(i) = 7.0f;  // 4-way tie
  const auto fwd = maxpool2d(input, 2, 2);
  ASSERT_EQ(fwd.argmax.size(), 1u);
  EXPECT_EQ(fwd.argmax[0], 0);  // first element of the window wins
  Tensor grad_out({1, 1, 1, 1});
  grad_out.at(0) = 3.0f;
  const Tensor grad_in = maxpool2d_backward(input.shape(), fwd.argmax, grad_out);
  EXPECT_EQ(grad_in.at(0), 3.0f);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(grad_in.at(i), 0.0f);
  // -0.0f vs +0.0f: strictly-greater never promotes an equal +0.0f over an
  // earlier -0.0f.
  Tensor zeros({1, 1, 2, 2});
  zeros.at(0) = -0.0f;
  const auto zfwd = maxpool2d(zeros, 2, 2);
  EXPECT_EQ(zfwd.argmax[0], 0);
  EXPECT_TRUE(std::signbit(zfwd.output.at(0)));
}

TEST(KernelParity, ActivationLossRandomized) {
  ModeGuard mode(KernelMode::kDeterministic);
  util::Rng rng(0xAC71);
  const Tensor x = Tensor::randn({2, 3, 6, 6}, rng);
  const Tensor gx = Tensor::randn({2, 3, 6, 6}, rng);
  for (const float cap : {0.0f, 6.0f}) {
    expect_bit_identical(relu(x, cap), reference::relu(x, cap), "relu");
    expect_bit_identical(relu_backward(x, gx, cap),
                         reference::relu_backward(x, gx, cap), "relu_backward");
  }

  const Tensor logits = Tensor::randn({5, 7}, rng);
  expect_bit_identical(softmax_rows(logits), reference::softmax_rows(logits),
                       "softmax_rows");
  const std::vector<int> labels{0, 3, 6, 2, 1};
  const auto xent = softmax_xent_rows(logits, labels);
  const auto xent_ref = reference::softmax_xent_rows(logits, labels);
  EXPECT_EQ(xent.loss, xent_ref.loss) << "softmax_xent_rows loss";
  expect_bit_identical(xent.grad, xent_ref.grad, "softmax_xent_rows grad");

  const Tensor teacher = Tensor::randn({5, 7}, rng);
  const auto kd = kd_softmax_rows(logits, teacher, 4.0);
  const auto kd_ref = reference::kd_softmax_rows(logits, teacher, 4.0);
  EXPECT_EQ(kd.loss, kd_ref.loss) << "kd_softmax_rows loss";
  expect_bit_identical(kd.grad, kd_ref.grad, "kd_softmax_rows grad");

}

TEST(KernelParity, SgdUpdateRandomized) {
  ModeGuard mode(KernelMode::kDeterministic);
  util::Rng rng(0x56D0);
  const Tensor init_p = Tensor::randn({41, 13}, rng);
  const Tensor g = Tensor::randn({41, 13}, rng);
  for (const bool with_momentum : {false, true}) {
    Tensor p_got = init_p, p_want = init_p;
    Tensor v_got({41, 13}), v_want({41, 13});
    std::span<float> vg = with_momentum ? v_got.data() : std::span<float>{};
    std::span<float> vw = with_momentum ? v_want.data() : std::span<float>{};
    for (int step = 0; step < 3; ++step) {
      sgd_update(p_got.data(), g.data(), vg, 0.05f, 0.9f, 1e-4f);
      reference::sgd_update(p_want.data(), g.data(), vw, 0.05f, 0.9f, 1e-4f);
    }
    expect_bit_identical(p_got, p_want, "sgd_update params");
    if (with_momentum)
      expect_bit_identical(v_got, v_want, "sgd_update velocity");
  }
}

TEST(KernelDeterminism, FrameworkOpsThreadCountInvariance) {
  ModeGuard mode(KernelMode::kDeterministic);
  ThreadGuard guard;
  util::Rng rng(0x7123);
  const Tensor input = Tensor::randn({4, 8, 16, 16}, rng);
  const Tensor logits = Tensor::randn({64, 33}, rng);
  const Tensor teacher = Tensor::randn({64, 33}, rng);
  std::vector<int> labels(64);
  for (int i = 0; i < 64; ++i) labels[static_cast<std::size_t>(i)] = i % 33;
  const Tensor init_p = Tensor::randn({300, 300}, rng);
  const Tensor grad = Tensor::randn({300, 300}, rng);

  auto run_all = [&] {
    struct Out {
      MaxPoolResult mp;
      Tensor mp_back, ap, xg, kg, sgd_p, sgd_v;
      double xl, kl;
    } o;
    o.mp = maxpool2d(input, 3, 2);
    const Tensor pg = Tensor::ones(o.mp.output.shape());
    o.mp_back = maxpool2d_backward(input.shape(), o.mp.argmax, pg);
    o.ap = avgpool2d(input, 3, 2);
    auto xent = softmax_xent_rows(logits, labels);
    o.xl = xent.loss;
    o.xg = std::move(xent.grad);
    auto kd = kd_softmax_rows(logits, teacher, 4.0);
    o.kl = kd.loss;
    o.kg = std::move(kd.grad);
    o.sgd_p = init_p;
    o.sgd_v = Tensor(init_p.shape());
    sgd_update(o.sgd_p.data(), grad.data(), o.sgd_v.data(), 0.1f, 0.9f, 1e-4f);
    return o;
  };

  util::set_configured_threads(1);
  const auto one = run_all();
  util::set_configured_threads(4);
  const auto four = run_all();

  expect_bit_identical(one.mp.output, four.mp.output, "maxpool threads 1 vs 4");
  EXPECT_EQ(one.mp.argmax, four.mp.argmax) << "argmax threads 1 vs 4";
  expect_bit_identical(one.mp_back, four.mp_back,
                       "maxpool backward threads 1 vs 4");
  expect_bit_identical(one.ap, four.ap, "avgpool threads 1 vs 4");
  EXPECT_EQ(one.xl, four.xl) << "xent loss threads 1 vs 4";
  expect_bit_identical(one.xg, four.xg, "xent grad threads 1 vs 4");
  EXPECT_EQ(one.kl, four.kl) << "kd loss threads 1 vs 4";
  expect_bit_identical(one.kg, four.kg, "kd grad threads 1 vs 4");
  expect_bit_identical(one.sgd_p, four.sgd_p, "sgd params threads 1 vs 4");
  expect_bit_identical(one.sgd_v, four.sgd_v, "sgd velocity threads 1 vs 4");
}

TEST(KernelValidation, FrameworkOpShapeErrors) {
  util::Rng rng(2);
  const Tensor input = Tensor::randn({1, 2, 4, 4}, rng);
  EXPECT_THROW(maxpool2d(input, 0, 1), std::invalid_argument);
  EXPECT_THROW(maxpool2d(input, 5, 5), std::invalid_argument);  // empty output
  const Tensor logits = Tensor::randn({2, 3}, rng);
  EXPECT_THROW(softmax_xent_rows(logits, {0}), std::invalid_argument);
  EXPECT_THROW(softmax_xent_rows(logits, {0, 5}), std::invalid_argument);
  EXPECT_THROW(kd_softmax_rows(logits, Tensor::randn({3, 3}, rng), 4.0),
               std::invalid_argument);
  Tensor p({4}), v({3});
  const Tensor g = Tensor::randn({4}, rng);
  EXPECT_THROW(sgd_update(p.data(), g.data(), v.data(), 0.1f, 0.9f, 0.0f),
               std::invalid_argument);
}

// Relu and no-argmax maxpool run their vector kernels in both modes
// whenever the CPU has them, so both modes must keep the reference's bits
// on the values a max/min instruction can get wrong: -0.0f stays -0.0f, a
// NaN (either sign) passes through relu, a NaN window element follows the
// scalar strictly-greater scan, and a value equal to the cap stays put.
// Without the vector kernels (the portable build) both modes run the scalar
// loops and must agree just the same.
TEST(KernelParity, ExactOpsKeepSpecialValuesInBothModes) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,  -0.0f, nan,  -nan, inf,
                            -inf,  6.0f,  -6.0f, std::nextafter(6.0f, 7.0f),
                            std::nextafter(6.0f, 5.0f)};
  constexpr int kSpecials = sizeof(specials) / sizeof(specials[0]);
  // Every third element is a special value, the rest normal with stddev 4.
  const auto seeded = [&](Shape shape, util::Rng& rng) {
    Tensor t = Tensor::randn(std::move(shape), rng, 4.0f);
    for (std::int64_t i = 0; i < t.numel(); i += 3)
      t.at(i) = specials[(i / 3) % kSpecials];
    return t;
  };
  for (const KernelMode m : {KernelMode::kDeterministic, KernelMode::kFast}) {
    ModeGuard mode(m);
    const char* name = kernel_mode_name(m);
    util::Rng rng(0x5EC1);
    for (const auto& p : kPoolCases) {
      const Tensor input = seeded({p.n, p.c, p.h, p.w}, rng);
      expect_bit_identical(
          maxpool2d(input, p.kernel, p.stride, /*with_argmax=*/false).output,
          reference::maxpool2d(input, p.kernel, p.stride).output, name);
    }
    const Tensor x = seeded({3, 5, 9, 9}, rng);
    for (const float cap : {0.0f, 6.0f})
      expect_bit_identical(relu(x, cap), reference::relu(x, cap), name);
  }
}

// Maxpool and relu vector paths are exact (no accumulation): fast mode must
// stay bitwise-identical to the reference, not just within tolerance.
TEST(FastKernels, ExactOpsStayBitwiseIdentical) {
  SKIP_WITHOUT_VECTOR_KERNELS();
  ModeGuard mode(KernelMode::kFast);
  util::Rng rng(0xFB17);
  for (const auto& p : kPoolCases) {
    const Tensor input = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
    // with_argmax=false unlocks the vector row kernel (inference forward).
    expect_bit_identical(
        maxpool2d(input, p.kernel, p.stride, /*with_argmax=*/false).output,
        reference::maxpool2d(input, p.kernel, p.stride).output,
        "fast maxpool2d");
  }
  const Tensor x = Tensor::randn({3, 5, 9, 9}, rng);
  const Tensor gx = Tensor::randn({3, 5, 9, 9}, rng);
  for (const float cap : {0.0f, 6.0f}) {
    expect_bit_identical(relu(x, cap), reference::relu(x, cap), "fast relu");
    expect_bit_identical(relu_backward(x, gx, cap),
                         reference::relu_backward(x, gx, cap),
                         "fast relu_backward");
  }
}

TEST(FastKernels, VectorizedOpsWithinTolerance) {
  SKIP_WITHOUT_VECTOR_KERNELS();
  ModeGuard mode(KernelMode::kFast);
  util::Rng rng(0xFAB2);
  for (const auto& p : kPoolCases) {
    const Tensor input = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
    expect_close(avgpool2d(input, p.kernel, p.stride),
                 reference::avgpool2d(input, p.kernel, p.stride),
                 "fast avgpool2d");
    expect_close(global_avgpool(input), reference::global_avgpool(input),
                 "fast global_avgpool");
  }
  const Tensor init_p = Tensor::randn({41, 13}, rng);
  const Tensor g = Tensor::randn({41, 13}, rng);
  Tensor p_got = init_p, p_want = init_p;
  Tensor v_got({41, 13}), v_want({41, 13});
  sgd_update(p_got.data(), g.data(), v_got.data(), 0.05f, 0.9f, 1e-4f);
  reference::sgd_update(p_want.data(), g.data(), v_want.data(), 0.05f, 0.9f,
                        1e-4f);
  expect_close(p_got, p_want, "fast sgd_update params");
  expect_close(v_got, v_want, "fast sgd_update velocity");
}

TEST(FastKernels, FrameworkOpsThreadCountInvariance) {
  SKIP_WITHOUT_VECTOR_KERNELS();
  ModeGuard mode(KernelMode::kFast);
  ThreadGuard guard;
  util::Rng rng(0xF00D);
  const Tensor input = Tensor::randn({4, 8, 16, 16}, rng);
  const Tensor init_p = Tensor::randn({300, 300}, rng);
  const Tensor grad = Tensor::randn({300, 300}, rng);

  auto run_all = [&] {
    struct Out {
      Tensor mp, ap, sgd_p, sgd_v;
    } o;
    o.mp = maxpool2d(input, 3, 2, /*with_argmax=*/false).output;
    o.ap = avgpool2d(input, 3, 2);
    o.sgd_p = init_p;
    o.sgd_v = Tensor(init_p.shape());
    sgd_update(o.sgd_p.data(), grad.data(), o.sgd_v.data(), 0.1f, 0.9f, 1e-4f);
    return o;
  };

  util::set_configured_threads(1);
  const auto one = run_all();
  util::set_configured_threads(4);
  const auto four = run_all();

  expect_bit_identical(one.mp, four.mp, "fast maxpool threads 1 vs 4");
  expect_bit_identical(one.ap, four.ap, "fast avgpool threads 1 vs 4");
  expect_bit_identical(one.sgd_p, four.sgd_p, "fast sgd params threads 1 vs 4");
  expect_bit_identical(one.sgd_v, four.sgd_v,
                       "fast sgd velocity threads 1 vs 4");
}

// Ops without a vectorized path run their deterministic kernels in fast mode
// and say so: once-per-process warning plus a counter.
TEST(FastKernels, FallbackOpsCountedAndStillCorrect) {
  SKIP_WITHOUT_VECTOR_KERNELS();
  ModeGuard mode(KernelMode::kFast);
  util::Rng rng(0xFA11);
  const Tensor logits = Tensor::randn({4, 6}, rng);
  obs::MetricsRegistry::global().reset();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const Tensor probs = softmax_rows(logits);
  const auto xent = softmax_xent_rows(logits, {0, 1, 2, 3});
  obs::set_enabled(was_enabled);
  const auto counters = obs::MetricsRegistry::global().counter_values();
  EXPECT_GE(counters.at("cadmc.kernel.fast_fallbacks"), 2);
  // Falling back means deterministic results — bitwise, not just close.
  expect_bit_identical(probs, reference::softmax_rows(logits),
                       "fast softmax_rows fallback");
  const auto want = reference::softmax_xent_rows(logits, {0, 1, 2, 3});
  EXPECT_EQ(xent.loss, want.loss);
  expect_bit_identical(xent.grad, want.grad, "fast xent fallback grad");
}

}  // namespace
}  // namespace cadmc::tensor
