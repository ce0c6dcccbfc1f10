// Binary tensor serialization: little-endian, "CADT" magic, rank, dims,
// float32 payload. Used by the feature codec (runtime transport) and by
// model checkpointing.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace cadmc::tensor {

/// Appends the encoded tensor to `out`.
void encode_tensor(const Tensor& t, std::vector<std::uint8_t>& out);
std::vector<std::uint8_t> encode_tensor(const Tensor& t);

/// Decodes one tensor starting at `offset`; advances offset past it.
/// Throws std::runtime_error on malformed input.
Tensor decode_tensor(const std::vector<std::uint8_t>& buf, std::size_t& offset);

}  // namespace cadmc::tensor
