// Scenario: the end-to-end "publish a dataset" workflow a data owner
// would actually run — profile the table, train a conditional GAN with
// validation-based snapshot selection, persist the model, reload it in
// a (conceptually separate) publishing step, generate the release
// table, and emit a full quality report for the data-governance
// review.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/parallel.h"
#include "data/csv.h"
#include "data/generators/realistic.h"
#include "data/profile.h"
#include "eval/report.h"
#include "eval/suite.h"
#include "eval/utility.h"
#include "synth/synthesizer.h"

int main(int argc, char** argv) {
  // Optional --threads N: worker-thread count for the Matrix kernels
  // (equivalent to the DAISY_THREADS environment variable; results are
  // bit-identical for any value).
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--threads")
      daisy::par::SetNumThreads(
          static_cast<size_t>(std::strtoul(argv[i + 1], nullptr, 10)));

  using namespace daisy;

  // --- The data owner's side -------------------------------------
  Rng rng(51);
  data::Table full = data::MakeAdultSim(2400, &rng);
  auto split = data::SplitTable(full, 4.0 / 6, 1.0 / 6, &rng);
  std::printf("%s\n",
              data::ProfileToString(data::ProfileTable(split.train)).c_str());

  synth::GanOptions opts;
  opts.algo = synth::TrainAlgo::kCTrain;  // skewed label: Finding 4
  opts.iterations = 300;
  synth::TableSynthesizer synth(opts, {});
  synth.Fit(split.train);

  eval::SnapshotSelectionOptions sopts;
  Rng sel_rng(53);
  const size_t best = eval::SelectBestSnapshot(&synth, split.valid, sopts,
                                               &sel_rng);
  std::printf("selected training snapshot %zu of %zu\n", best + 1,
              synth.num_snapshots());

  const Status save_st = synth.Save("adult_model.daisy");
  std::printf("saved model: %s\n", save_st.ToString().c_str());
  if (!save_st.ok()) return 1;

  // --- The publishing side (separate process in real life) --------
  auto loaded = synth::TableSynthesizer::Load("adult_model.daisy");
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  Rng gen_rng(59);
  data::Table release = loaded.value()->Generate(
      split.train.num_records(), &gen_rng);
  if (!data::WriteCsv(release, "adult_release.csv").ok()) return 1;
  std::printf("wrote adult_release.csv (%zu records)\n",
              release.num_records());

  // --- Governance review ------------------------------------------
  eval::SuiteOptions ropts;
  ropts.privacy_samples = 300;
  auto review = eval::EvaluationSuite(ropts).Run(split.train, release);
  if (!review.ok()) {
    std::fprintf(stderr, "evaluation failed: %s\n",
                 review.status().ToString().c_str());
    return 1;
  }
  const std::string report =
      eval::GenerateQualityReport(review.value(), split.train, release);
  std::ofstream("adult_release_report.md") << report;
  std::printf("wrote adult_release_report.md (%zu bytes)\n", report.size());

  // Print the headline utility line for the console.
  std::printf("headline RF10 F1 Diff vs real training data: %.4f\n",
              review.value().Find("utility.f1_diff.RF10")->value);
  return 0;
}
