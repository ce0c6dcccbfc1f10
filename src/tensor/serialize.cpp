#include "tensor/serialize.h"

#include <cstring>
#include <stdexcept>

namespace cadmc::tensor {

namespace {
constexpr std::uint32_t kMagic = 0x54444143;  // "CADT"

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  std::uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
T get(const std::vector<std::uint8_t>& buf, std::size_t& offset) {
  if (offset + sizeof(T) > buf.size())
    throw std::runtime_error("decode_tensor: truncated buffer");
  T v;
  std::memcpy(&v, buf.data() + offset, sizeof(T));
  offset += sizeof(T);
  return v;
}
}  // namespace

void encode_tensor(const Tensor& t, std::vector<std::uint8_t>& out) {
  put(out, kMagic);
  put(out, static_cast<std::uint32_t>(t.rank()));
  for (std::size_t i = 0; i < t.rank(); ++i)
    put(out, static_cast<std::int32_t>(t.dim(i)));
  const std::size_t bytes = static_cast<std::size_t>(t.numel()) * sizeof(float);
  const std::size_t pos = out.size();
  out.resize(pos + bytes);
  if (bytes) std::memcpy(out.data() + pos, t.data().data(), bytes);
}

std::vector<std::uint8_t> encode_tensor(const Tensor& t) {
  std::vector<std::uint8_t> out;
  encode_tensor(t, out);
  return out;
}

Tensor decode_tensor(const std::vector<std::uint8_t>& buf, std::size_t& offset) {
  if (get<std::uint32_t>(buf, offset) != kMagic)
    throw std::runtime_error("decode_tensor: bad magic");
  const std::uint32_t rank = get<std::uint32_t>(buf, offset);
  if (rank > 8) throw std::runtime_error("decode_tensor: absurd rank");
  Shape shape;
  for (std::uint32_t i = 0; i < rank; ++i) {
    const std::int32_t d = get<std::int32_t>(buf, offset);
    if (d <= 0) throw std::runtime_error("decode_tensor: non-positive dim");
    shape.push_back(d);
  }
  const std::int64_t numel = shape_numel(shape);
  const std::size_t bytes = static_cast<std::size_t>(numel) * sizeof(float);
  if (offset + bytes > buf.size())
    throw std::runtime_error("decode_tensor: truncated payload");
  std::vector<float> values(static_cast<std::size_t>(numel));
  if (bytes) std::memcpy(values.data(), buf.data() + offset, bytes);
  offset += bytes;
  return Tensor(std::move(shape), std::move(values));
}

}  // namespace cadmc::tensor
