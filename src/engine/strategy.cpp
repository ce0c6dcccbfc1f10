#include "engine/strategy.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace cadmc::engine {

namespace {

// Cache hit/miss/insert accounting per evaluator cache ("memo",
// "edge_latency", "mask"). `insert` counts *winning* inserts only: under
// concurrency two threads may compute the same key and race, and the loser's
// duplicate is dropped by ShardedCache — the hit+miss totals still add up.
void count_cache(const char* cache, const char* event) {
  if (!obs::enabled()) return;  // skip the name allocation on the hot path
  obs::count(std::string("cadmc.eval.cache.") + cache + "." + event);
}

}  // namespace

std::string Strategy::key() const {
  std::ostringstream ss;
  ss << cut << "|";
  for (compress::TechniqueId id : plan) ss << static_cast<int>(id);
  return ss.str();
}

nn::Model realize_edge_prefix(const nn::Model& base, const Strategy& s,
                              const compress::TechniqueRegistry& registry,
                              util::Rng& rng) {
  if (s.plan.size() != base.size())
    throw std::invalid_argument("realize_strategy: plan size mismatch");
  if (s.cut > base.size())
    throw std::out_of_range("realize_strategy: cut out of range");
  for (std::size_t i = s.cut; i < s.plan.size(); ++i)
    if (s.plan[i] != compress::TechniqueId::kNone)
      throw std::invalid_argument("realize_strategy: plan touches cloud side");

  nn::Model edge = base.slice(0, s.cut);
  std::vector<compress::TechniqueId> edge_plan(s.plan.begin(),
                                               s.plan.begin() + static_cast<std::ptrdiff_t>(s.cut));
  registry.apply_plan(edge_plan, edge, rng);
  return edge;
}

RealizedStrategy realize_strategy(const nn::Model& base, const Strategy& s,
                                  const compress::TechniqueRegistry& registry,
                                  util::Rng& rng) {
  nn::Model edge = realize_edge_prefix(base, s, registry, rng);
  RealizedStrategy out;
  out.model = nn::Model(base.input_shape());
  out.model.append(edge);
  out.cut = out.model.size();
  out.model.append(base.slice(s.cut, base.size()));
  return out;
}

StrategyEvaluator::StrategyEvaluator(const nn::Model& base,
                                     partition::PartitionEvaluator partition_eval,
                                     AccuracyModel accuracy_model,
                                     std::uint64_t seed,
                                     bool include_extensions)
    : base_(&base),
      partition_eval_(std::move(partition_eval)),
      accuracy_model_(std::move(accuracy_model)),
      registry_(/*faithful_weights=*/false, include_extensions),
      realize_seed_(seed) {
  base_boundary_bytes_ = base.boundary_bytes();
  cloud_prefix_ms_.resize(base.size() + 1, 0.0);
  nn::Shape shape = base.input_shape();
  for (std::size_t i = 0; i < base.size(); ++i) {
    cloud_prefix_ms_[i + 1] =
        cloud_prefix_ms_[i] +
        partition_eval_.cloud_model().layer_latency_ms(base.layer(i), shape);
    shape = base.layer(i).output_shape(shape);
  }
}

std::vector<std::vector<int>> StrategyEvaluator::technique_masks(
    std::size_t slice_begin, std::size_t slice_end) const {
  if (slice_begin > slice_end || slice_end > base_->size())
    throw std::out_of_range("technique_masks: bad slice");
  const std::string cache_key =
      std::to_string(slice_begin) + ":" + std::to_string(slice_end);
  if (auto cached = mask_cache_.find(cache_key)) {
    count_cache("mask", "hit");
    return *std::move(cached);
  }
  count_cache("mask", "miss");
  const nn::Model slice = base_->slice(slice_begin, slice_end);
  std::vector<std::vector<int>> masks;
  masks.reserve(slice.size());
  for (std::size_t i = 0; i < slice.size(); ++i) {
    std::vector<int> mask;
    for (compress::TechniqueId id : registry_.applicable(slice, i))
      mask.push_back(static_cast<int>(id));
    masks.push_back(std::move(mask));
  }
  if (mask_cache_.insert(cache_key, masks)) count_cache("mask", "insert");
  return masks;
}

double StrategyEvaluator::edge_slice_latency_ms(const Strategy& s,
                                                std::size_t begin,
                                                std::size_t end) const {
  std::ostringstream key;
  key << begin << ":" << end << ":";
  for (std::size_t i = begin; i < end; ++i)
    key << static_cast<int>(s.plan[i]);
  const std::string k = key.str();
  if (auto cached = edge_latency_cache_.find(k)) {
    count_cache("edge_latency", "hit");
    return *cached;
  }
  count_cache("edge_latency", "miss");

  nn::Model slice = base_->slice(begin, end);
  std::vector<compress::TechniqueId> sub_plan(
      s.plan.begin() + static_cast<std::ptrdiff_t>(begin),
      s.plan.begin() + static_cast<std::ptrdiff_t>(end));
  // The realization seed is a pure function of (base seed, cache key): the
  // same (slice, plan) always realizes identical placeholder weights, no
  // matter which call — or thread — gets here first.
  std::uint64_t seed_state = realize_seed_ ^ util::fnv1a64(k);
  util::Rng rng(util::splitmix64(seed_state));
  registry_.apply_plan(sub_plan, slice, rng);
  const double ms =
      partition_eval_.edge_model().range_latency_ms(slice, 0, slice.size());
  if (edge_latency_cache_.insert(k, ms)) count_cache("edge_latency", "insert");
  return ms;
}

double StrategyEvaluator::cloud_suffix_latency_ms(std::size_t cut) const {
  return cloud_prefix_ms_.back() - cloud_prefix_ms_[cut];
}

Evaluation StrategyEvaluator::evaluate(const Strategy& s,
                                       double bandwidth_bytes_per_ms) const {
  return evaluate_trajectory(s, {}, {bandwidth_bytes_per_ms});
}

Evaluation StrategyEvaluator::evaluate_trajectory(
    const Strategy& s, const std::vector<std::size_t>& boundaries,
    const std::vector<double>& bandwidth_per_block) const {
  if (s.plan.size() != base_->size())
    throw std::invalid_argument("evaluate: plan size mismatch");
  if (s.cut > base_->size()) throw std::out_of_range("evaluate: cut");
  if (bandwidth_per_block.size() != boundaries.size() + 1)
    throw std::invalid_argument("evaluate: one bandwidth per block required");

  std::ostringstream memo_key;
  memo_key << s.key();
  for (std::size_t b : boundaries) memo_key << "," << b;
  for (double bw : bandwidth_per_block)
    memo_key << "~" << static_cast<std::int64_t>(bw * 16.0);  // bandwidth bucket
  const std::string mk = memo_key.str();
  if (auto cached = memo_.find(mk)) {
    count_cache("memo", "hit");
    return *cached;
  }
  count_cache("memo", "miss");

  // Block j spans base layers [block_begin[j], block_end[j]).
  std::vector<std::size_t> edges{0};
  for (std::size_t b : boundaries) edges.push_back(b);
  edges.push_back(base_->size());

  Evaluation eval;
  for (std::size_t j = 0; j + 1 < edges.size(); ++j) {
    const std::size_t begin = edges[j], end = edges[j + 1];
    if (begin >= s.cut) break;  // everything from here on runs on the cloud
    eval.breakdown.edge_ms +=
        edge_slice_latency_ms(s, begin, std::min(end, s.cut));
  }
  eval.breakdown.cloud_ms = cloud_suffix_latency_ms(s.cut);
  if (s.cut < base_->size()) {
    // Transfer is priced at the bandwidth of the block containing the first
    // cloud layer (the state in force when the offload happens).
    std::size_t cut_block = bandwidth_per_block.size() - 1;
    for (std::size_t j = 0; j + 1 < edges.size(); ++j) {
      if (s.cut < edges[j + 1]) {
        cut_block = j;
        break;
      }
    }
    eval.breakdown.transfer_ms = partition_eval_.transfer_model().latency_ms(
        base_boundary_bytes_[s.cut], bandwidth_per_block[cut_block]);
  }
  eval.latency_ms = eval.breakdown.total_ms();
  eval.accuracy = accuracy_model_.estimate(s.plan);
  eval.reward = reward(eval.accuracy, eval.latency_ms);
  if (memo_.insert(mk, eval)) count_cache("memo", "insert");
  return eval;
}

}  // namespace cadmc::engine
