#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace cadmc::tensor {

namespace {

// Maps float bits onto a line where integer distance == ULP distance and
// +0/-0 coincide: non-negative floats keep their bit pattern, negative
// floats fold below zero.
std::int64_t ordered_bits(float f) {
  std::int32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits >= 0
             ? static_cast<std::int64_t>(bits)
             : static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::min()) -
                   bits;
}

}  // namespace

std::uint64_t ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<std::uint64_t>::max();
  const std::int64_t oa = ordered_bits(a);
  const std::int64_t ob = ordered_bits(b);
  return static_cast<std::uint64_t>(oa > ob ? oa - ob : ob - oa);
}

CompareResult compare_close(const float* got, const float* want,
                            std::int64_t n, const CompareTolerance& tol) {
  CompareResult result;
  result.count = n;
  for (std::int64_t i = 0; i < n; ++i) {
    const double g = got[i], w = want[i];
    const double abs_err = std::abs(g - w);
    const bool nan = std::isnan(g) != std::isnan(w);
    const bool within =
        !nan && (abs_err <= tol.abs_tol + tol.rel_tol * std::abs(w) ||
                 (std::isnan(g) && std::isnan(w)));
    if (!within) {
      ++result.mismatches;
      if (result.first_mismatch < 0) {
        result.first_mismatch = i;
        result.first_got = got[i];
        result.first_want = want[i];
      }
    }
    const double rel =
        abs_err / std::max(std::abs(w), 1e-30);
    if (rel > result.max_rel_error ||
        (result.max_rel_index < 0 && !std::isnan(rel))) {
      result.max_rel_error = rel;
      result.max_rel_index = i;
    }
    const std::uint64_t ulp = ulp_distance(got[i], want[i]);
    if (ulp > result.max_ulp || result.max_ulp_index < 0) {
      result.max_ulp = ulp;
      result.max_ulp_index = i;
    }
  }
  result.ok = result.mismatches == 0;
  return result;
}

CompareResult compare_close(const Tensor& got, const Tensor& want,
                            const CompareTolerance& tol) {
  if (got.shape() != want.shape()) {
    CompareResult result;
    result.ok = false;
    result.count = -1;
    return result;
  }
  return compare_close(got.data().data(), want.data().data(), got.numel(),
                       tol);
}

std::string CompareResult::summary() const {
  if (count < 0) return "FAIL: shape mismatch";
  char buf[256];
  if (ok) {
    std::snprintf(buf, sizeof(buf),
                  "ok: %lld elements, max_rel=%.3g @%lld, max_ulp=%llu @%lld",
                  static_cast<long long>(count), max_rel_error,
                  static_cast<long long>(max_rel_index),
                  static_cast<unsigned long long>(max_ulp),
                  static_cast<long long>(max_ulp_index));
  } else {
    std::snprintf(
        buf, sizeof(buf),
        "FAIL: %lld/%lld beyond tolerance, first @%lld got=%.9g want=%.9g, "
        "max_rel=%.3g @%lld, max_ulp=%llu @%lld",
        static_cast<long long>(mismatches), static_cast<long long>(count),
        static_cast<long long>(first_mismatch),
        static_cast<double>(first_got), static_cast<double>(first_want),
        max_rel_error, static_cast<long long>(max_rel_index),
        static_cast<unsigned long long>(max_ulp),
        static_cast<long long>(max_ulp_index));
  }
  return buf;
}

}  // namespace cadmc::tensor
