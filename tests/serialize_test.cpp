// Tensor binary codec tests: round-trips, multi-tensor streams, malformed
// input rejection.
#include <gtest/gtest.h>

#include "tensor/serialize.h"
#include "util/rng.h"

namespace cadmc::tensor {
namespace {

TEST(Serialize, RoundTrip1d) {
  const Tensor t = Tensor::from_values({1.5f, -2.0f, 3.25f});
  const auto buf = encode_tensor(t);
  std::size_t offset = 0;
  const Tensor back = decode_tensor(buf, offset);
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(Tensor::max_abs_diff(back, t), 0.0f);
}

TEST(Serialize, RoundTrip4d) {
  util::Rng rng(1);
  const Tensor t = Tensor::randn({2, 3, 4, 5}, rng);
  const auto buf = encode_tensor(t);
  std::size_t offset = 0;
  const Tensor back = decode_tensor(buf, offset);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(Tensor::max_abs_diff(back, t), 0.0f);
}

TEST(Serialize, MultipleTensorsInOneBuffer) {
  const Tensor a = Tensor::from_values({1.0f});
  const Tensor b = Tensor::from_values({2.0f, 3.0f});
  std::vector<std::uint8_t> buf;
  encode_tensor(a, buf);
  encode_tensor(b, buf);
  std::size_t offset = 0;
  const Tensor a2 = decode_tensor(buf, offset);
  const Tensor b2 = decode_tensor(buf, offset);
  EXPECT_EQ(a2.numel(), 1);
  EXPECT_EQ(b2.numel(), 2);
  EXPECT_EQ(b2(1), 3.0f);
  EXPECT_EQ(offset, buf.size());
}

TEST(Serialize, BadMagicRejected) {
  auto buf = encode_tensor(Tensor::from_values({1.0f}));
  buf[0] ^= 0xFF;
  std::size_t offset = 0;
  EXPECT_THROW(decode_tensor(buf, offset), std::runtime_error);
}

TEST(Serialize, TruncatedPayloadRejected) {
  auto buf = encode_tensor(Tensor::from_values({1.0f, 2.0f}));
  buf.resize(buf.size() - 3);
  std::size_t offset = 0;
  EXPECT_THROW(decode_tensor(buf, offset), std::runtime_error);
}

TEST(Serialize, TruncatedHeaderRejected) {
  std::vector<std::uint8_t> buf{0x43, 0x41};
  std::size_t offset = 0;
  EXPECT_THROW(decode_tensor(buf, offset), std::runtime_error);
}

TEST(Serialize, AbsurdRankRejected) {
  std::vector<std::uint8_t> buf;
  const std::uint32_t magic = 0x54444143, rank = 1000;
  buf.insert(buf.end(), reinterpret_cast<const std::uint8_t*>(&magic),
             reinterpret_cast<const std::uint8_t*>(&magic) + 4);
  buf.insert(buf.end(), reinterpret_cast<const std::uint8_t*>(&rank),
             reinterpret_cast<const std::uint8_t*>(&rank) + 4);
  std::size_t offset = 0;
  EXPECT_THROW(decode_tensor(buf, offset), std::runtime_error);
}

}  // namespace
}  // namespace cadmc::tensor
