#include "nn/layer.h"

#include <sstream>

namespace cadmc::nn {

std::string LayerSpec::to_string() const {
  std::ostringstream ss;
  ss << type << "," << kernel << "," << stride << "," << padding << ","
     << out_channels;
  return ss.str();
}

void Layer::zero_grad() {
  for (Tensor* g : grads()) g->fill(0.0f);
}

std::int64_t Layer::param_count() {
  std::int64_t n = 0;
  for (Tensor* p : params()) n += p->numel();
  return n;
}

}  // namespace cadmc::nn
