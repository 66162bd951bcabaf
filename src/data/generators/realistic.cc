#include "data/generators/realistic.h"

#include "data/generators/sim_config.h"

namespace daisy::data {

namespace {

// Each stand-in derives its SimConfig from a fixed seed so the schema
// and distributions are identical across runs; the caller's rng only
// drives record sampling.
Table FromRandomConfig(const RandomSimOptions& opts, uint64_t config_seed,
                       size_t n, Rng* rng) {
  Rng config_rng(config_seed);
  SimConfig config = RandomSimConfig(opts, &config_rng);
  return GenerateSimTable(config, n, rng);
}

}  // namespace

Table MakeHtru2Sim(size_t n, Rng* rng) {
  RandomSimOptions opts;
  opts.num_numerical = 8;
  opts.num_categorical = 0;
  opts.num_labels = 2;
  opts.label_priors = {0.91, 0.09};  // pulsars are rare
  opts.min_modes = 1;
  opts.max_modes = 3;
  opts.label_separation = 2.0;
  return FromRandomConfig(opts, 0xA001, n, rng);
}

Table MakeDigitsSim(size_t n, Rng* rng) {
  RandomSimOptions opts;
  opts.num_numerical = 16;
  opts.num_categorical = 0;
  opts.num_labels = 10;
  opts.min_modes = 1;
  opts.max_modes = 2;
  opts.label_separation = 2.5;
  return FromRandomConfig(opts, 0xA002, n, rng);
}

Table MakeAdultSim(size_t n, Rng* rng) {
  RandomSimOptions opts;
  opts.num_numerical = 6;
  opts.num_categorical = 8;
  opts.num_labels = 2;
  // Paper: positive:negative = 0.34, i.e. ~25% positive.
  opts.label_priors = {0.75, 0.25};
  opts.min_modes = 2;  // age/hours-per-week style multi-modality
  opts.max_modes = 4;
  opts.min_categories = 2;
  opts.max_categories = 12;
  opts.label_separation = 1.5;
  return FromRandomConfig(opts, 0xA003, n, rng);
}

Table MakeCovTypeSim(size_t n, Rng* rng) {
  RandomSimOptions opts;
  opts.num_numerical = 10;
  opts.num_categorical = 2;
  opts.num_labels = 7;
  opts.label_priors = {0.30, 0.46, 0.06, 0.04, 0.05, 0.04, 0.05};
  opts.min_modes = 1;
  opts.max_modes = 3;
  opts.min_categories = 4;
  opts.max_categories = 12;
  opts.label_separation = 1.8;
  return FromRandomConfig(opts, 0xA004, n, rng);
}

Table MakeSatSim(size_t n, Rng* rng) {
  RandomSimOptions opts;
  opts.num_numerical = 36;
  opts.num_categorical = 0;
  opts.num_labels = 6;
  opts.min_modes = 1;
  opts.max_modes = 2;
  opts.label_separation = 2.0;
  return FromRandomConfig(opts, 0xA005, n, rng);
}

Table MakeAnuranSim(size_t n, Rng* rng) {
  RandomSimOptions opts;
  opts.num_numerical = 22;
  opts.num_categorical = 0;
  opts.num_labels = 10;
  // Very skew: dominated by a few species (paper: 3478 vs 68 records).
  opts.label_priors = {0.30, 0.25, 0.15, 0.10, 0.06, 0.05, 0.04, 0.03,
                       0.01, 0.01};
  opts.min_modes = 1;
  opts.max_modes = 2;
  opts.label_separation = 2.2;
  return FromRandomConfig(opts, 0xA006, n, rng);
}

Table MakeCensusSim(size_t n, Rng* rng) {
  RandomSimOptions opts;
  opts.num_numerical = 9;
  opts.num_categorical = 30;
  opts.num_labels = 2;
  opts.label_priors = {0.95, 0.05};
  opts.min_modes = 1;
  opts.max_modes = 3;
  opts.min_categories = 2;
  opts.max_categories = 10;
  opts.label_separation = 1.5;
  return FromRandomConfig(opts, 0xA007, n, rng);
}

Table MakeBingSim(size_t n, Rng* rng) {
  RandomSimOptions opts;
  opts.num_numerical = 7;
  opts.num_categorical = 23;
  opts.num_labels = 1;  // generated, then stripped to unlabeled below
  opts.min_modes = 2;
  opts.max_modes = 4;
  opts.min_categories = 2;
  opts.max_categories = 16;
  Rng config_rng(0xA008);
  SimConfig config = RandomSimConfig(opts, &config_rng);
  config.label_names.clear();  // AQP-only table: no label attribute
  config.label_priors.clear();
  return GenerateSimTable(config, n, rng);
}

Table MakeDatasetByName(const std::string& name, size_t n, Rng* rng) {
  if (name == "htru2") return MakeHtru2Sim(n, rng);
  if (name == "digits") return MakeDigitsSim(n, rng);
  if (name == "adult") return MakeAdultSim(n, rng);
  if (name == "covtype") return MakeCovTypeSim(n, rng);
  if (name == "sat") return MakeSatSim(n, rng);
  if (name == "anuran") return MakeAnuranSim(n, rng);
  if (name == "census") return MakeCensusSim(n, rng);
  if (name == "bing") return MakeBingSim(n, rng);
  DAISY_CHECK(false && "unknown dataset name");
  return Table();
}

}  // namespace daisy::data
