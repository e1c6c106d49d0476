#include "src/workload/workload.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/math.h"

namespace fmoe {

DatasetProfile LmsysLikeProfile() {
  DatasetProfile profile;
  profile.name = "LMSYS-like";
  profile.num_clusters = 24;
  profile.cluster_skew = 0.6;
  profile.prompt_log_mean = 4.6;
  profile.prompt_log_sigma = 0.8;
  profile.decode_log_mean = 4.0;
  profile.decode_log_sigma = 0.6;
  profile.blend_probability = 0.25;
  return profile;
}

DatasetProfile ShareGptLikeProfile() {
  DatasetProfile profile;
  profile.name = "ShareGPT-like";
  profile.num_clusters = 16;
  profile.cluster_skew = 0.9;
  profile.prompt_log_mean = 5.4;  // ~220 tokens.
  profile.prompt_log_sigma = 0.7;
  profile.decode_log_mean = 4.4;  // ~80 tokens.
  profile.decode_log_sigma = 0.6;
  profile.blend_probability = 0.35;
  profile.max_blend_weight = 0.5;
  return profile;
}

std::vector<DatasetProfile> AllPaperDatasets() {
  return {LmsysLikeProfile(), ShareGptLikeProfile()};
}

WorkloadGenerator::WorkloadGenerator(const DatasetProfile& profile, uint64_t seed)
    : profile_(profile), rng_(seed) {
  FMOE_CHECK(profile.num_clusters > 0);
  // Precompute the Zipf-like cluster CDF.
  cluster_cdf_.resize(static_cast<size_t>(profile_.num_clusters));
  double total = 0.0;
  for (int c = 0; c < profile_.num_clusters; ++c) {
    total += Exp(-profile_.cluster_skew * Log(static_cast<double>(c + 1)));
    cluster_cdf_[static_cast<size_t>(c)] = total;
  }
  for (double& v : cluster_cdf_) {
    v /= total;
  }
}

int WorkloadGenerator::SampleCluster() {
  const double u = rng_.NextDouble();
  const auto it = std::lower_bound(cluster_cdf_.begin(), cluster_cdf_.end(), u);
  return static_cast<int>(it - cluster_cdf_.begin());
}

int WorkloadGenerator::SampleLength(double log_mean, double log_sigma, int min_value,
                                    int max_value) {
  const double raw = rng_.NextLogNormal(log_mean, log_sigma);
  const int tokens = static_cast<int>(std::lround(raw));
  return std::clamp(tokens, min_value, max_value);
}

Request WorkloadGenerator::NextRequest() {
  Request req;
  req.id = next_id_++;
  req.routing.cluster = SampleCluster();
  req.routing.blend_cluster = req.routing.cluster;
  req.routing.blend_weight = 0.0;
  if (rng_.NextBool(profile_.blend_probability) && profile_.num_clusters > 1) {
    do {
      req.routing.blend_cluster = SampleCluster();
    } while (req.routing.blend_cluster == req.routing.cluster);
    req.routing.blend_weight = rng_.NextUniform(0.15, profile_.max_blend_weight);
  }
  req.routing.noise_multiplier =
      rng_.NextUniform(profile_.min_noise_multiplier, profile_.max_noise_multiplier);
  req.routing.seed = rng_.Next();
  req.prompt_tokens = SampleLength(profile_.prompt_log_mean, profile_.prompt_log_sigma,
                                   profile_.min_prompt_tokens, profile_.max_prompt_tokens);
  req.decode_tokens = SampleLength(profile_.decode_log_mean, profile_.decode_log_sigma,
                                   profile_.min_decode_tokens, profile_.max_decode_tokens);
  req.arrival_time = 0.0;
  return req;
}

std::vector<Request> WorkloadGenerator::Generate(size_t count) {
  std::vector<Request> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    requests.push_back(NextRequest());
  }
  return requests;
}

WorkloadSplit SplitWorkload(std::vector<Request> requests, double history_fraction) {
  FMOE_CHECK(history_fraction >= 0.0 && history_fraction <= 1.0);
  const size_t history_count =
      static_cast<size_t>(history_fraction * static_cast<double>(requests.size()));
  WorkloadSplit split;
  split.history.assign(requests.begin(),
                       requests.begin() + static_cast<ptrdiff_t>(history_count));
  split.test.assign(requests.begin() + static_cast<ptrdiff_t>(history_count), requests.end());
  return split;
}

}  // namespace fmoe
