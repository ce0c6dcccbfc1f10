// Scenario: the RealEval path end to end — no analytic accuracy model
// anywhere. A small CNN is trained on SynthCIFAR, each applicable Table II
// technique is applied with faithful weights, the compressed model is
// retrained with knowledge distillation against the base (Sec. VI-D), and
// the REAL measured accuracies before/after recovery are reported alongside
// the MACC savings.
//
//   ./examples/train_and_compress
#include <cstdio>

#include "compress/registry.h"
#include "data/dataloader.h"
#include "engine/accuracy_model.h"
#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/factory.h"
#include "nn/linear.h"
#include "nn/pool.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/table.h"
#include "util/string_util.h"

using namespace cadmc;

namespace {
double eval_accuracy(nn::Model& model, const data::SynthCifar& dataset,
                     int begin, int end) {
  data::DataLoader loader(dataset, begin, end, 32);
  double acc = 0.0;
  for (int b = 0; b < loader.batches_per_epoch(); ++b) {
    const auto batch = loader.batch(b);
    acc += nn::accuracy(model.forward(batch.images), batch.labels);
  }
  return acc / loader.batches_per_epoch();
}
}  // namespace

nn::Model make_wide_cnn(std::uint64_t seed) {
  // Wide enough (>= 16 channels) that every Table II conv technique applies.
  util::Rng rng(seed);
  nn::Model m({3, 16, 16});
  m.add(std::make_unique<nn::Conv2d>(3, 16, 3, 1, 1, rng));
  m.add(std::make_unique<nn::ReLU>());
  m.add(std::make_unique<nn::MaxPool2d>(2, 2));
  m.add(std::make_unique<nn::Conv2d>(16, 32, 3, 1, 1, rng));
  m.add(std::make_unique<nn::ReLU>());
  m.add(std::make_unique<nn::MaxPool2d>(2, 2));
  m.add(std::make_unique<nn::Flatten>());
  m.add(std::make_unique<nn::Linear>(32 * 4 * 4, 32, rng));
  m.add(std::make_unique<nn::ReLU>());
  m.add(std::make_unique<nn::Linear>(32, 6, rng));
  return m;
}

int main() {
  data::SynthCifar dataset(16, 6, 0x7C41, /*noise=*/0.18);
  nn::Model base = make_wide_cnn(0x7C42);

  std::printf("Training the base CNN on SynthCIFAR (6 classes, 16x16)...\n");
  {
    data::DataLoader loader(dataset, 0, 512, 32);
    nn::Sgd sgd(0.02, 0.9);
    for (int step = 0; step < 250; ++step) {
      const auto batch = loader.batch(step);
      const auto loss =
          nn::cross_entropy(base.forward_train(batch.images), batch.labels);
      base.zero_grad();
      base.backward(loss.grad);
      sgd.step(base.params(), base.grads());
    }
  }
  const double base_acc = eval_accuracy(base, dataset, 512, 640);
  std::printf("Base accuracy: %.1f%% (chance %.1f%%), MACCs %lld\n\n",
              base_acc * 100, 100.0 / 6, static_cast<long long>(base.total_macc()));

  engine::RealAccuracyEvaluator evaluator(base, dataset, 512, 128, 32,
                                          /*train_steps=*/120, /*lr=*/0.02);
  compress::TechniqueRegistry registry;  // weight-faithful

  util::AsciiTable table({"Technique", "Site", "MACC x", "Acc before (%)",
                          "Acc after distill (%)"});
  for (const auto& technique : registry.all()) {
    // First applicable site.
    std::size_t site = base.size();
    for (std::size_t i = 0; i < base.size(); ++i)
      if (technique->applicable(base, i)) {
        site = i;
        break;
      }
    if (site == base.size()) {
      table.add_row({technique->name(), "n/a", "-", "-", "-"});
      continue;
    }
    nn::Model compressed = base;
    util::Rng rng(0x7C43 + static_cast<std::uint64_t>(technique->id()));
    technique->apply(compressed, site, rng);
    const double macc_ratio =
        static_cast<double>(compressed.total_macc()) / base.total_macc();
    const double acc_before = eval_accuracy(compressed, dataset, 512, 640);
    const double acc_after = evaluator.train_and_evaluate(compressed);
    table.add_row({technique->name(), std::to_string(site),
                   util::format_double(macc_ratio, 3),
                   util::format_double(acc_before * 100, 1),
                   util::format_double(acc_after * 100, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Weight-faithful transforms (F1/F2, W1) keep most accuracy even before\n"
      "retraining; re-initialized factorizations (C1-C3) rely on distillation\n"
      "to recover — the same recovery the paper's offline phase performs.\n");
  return 0;
}
