// Evaluation-harness benchmarks (google-benchmark): each parallelized
// metric swept over table size and thread count. Args are
// {metric, rows, threads}; the thread count goes through
// par::SetNumThreads (same mechanism as DAISY_THREADS) and is restored
// afterwards. All metrics are bitwise identical across the threads
// axis — only time changes — so the thread sweep is a pure speedup
// measurement.
//
// EXPERIMENTS.md describes how to export the sweep as BENCH_eval.json.
#include <benchmark/benchmark.h>

#include "core/parallel.h"
#include "data/generators/realistic.h"
#include "data/generators/skewed.h"
#include "eval/aqp.h"
#include "eval/classifier.h"
#include "eval/fidelity.h"
#include "eval/privacy.h"
#include "eval/random_forest.h"
#include "eval/suite.h"

namespace daisy {
namespace {

enum EvalMetric : int {
  kHittingRate = 0,
  kDcr = 1,
  kRandomForestFit = 2,
  kAqpDiff = 3,
  kFidelity = 4,
  kHeavyTail = 5,  // rare-mode recall + per-category KL on a Zipf table
};

void BM_Eval(benchmark::State& state) {
  const int metric = static_cast<int>(state.range(0));
  const size_t rows = static_cast<size_t>(state.range(1));
  const size_t threads = static_cast<size_t>(state.range(2));

  Rng rng(61);
  const bool heavy_tail = metric == kHeavyTail;
  data::SkewedTableOptions sk;
  sk.num_records = rows;
  const data::Table real = heavy_tail ? data::MakeSkewedTable(sk, &rng)
                                      : data::MakeAdultSim(rows, &rng);
  const data::Table synth = heavy_tail ? data::MakeSkewedTable(sk, &rng)
                                       : data::MakeAdultSim(rows, &rng);

  // Metric-specific setup outside the timed loop.
  const Matrix x = real.FeatureMatrix();
  const std::vector<size_t> y = real.Labels();
  std::vector<eval::AqpQuery> workload;
  if (metric == kAqpDiff) {
    eval::AqpWorkloadOptions wopts;
    wopts.num_queries = 50;
    Rng wl_rng(62);
    workload = eval::GenerateAqpWorkload(real, wopts, &wl_rng).value();
  }

  par::SetNumThreads(threads);
  for (auto _ : state) {
    switch (metric) {
      case kHittingRate: {
        eval::HittingRateOptions opts;
        opts.num_synthetic_samples = 1000;
        Rng r(63);
        benchmark::DoNotOptimize(
            eval::HittingRate(real, synth, opts, &r).value());
        break;
      }
      case kDcr: {
        eval::DcrOptions opts;
        opts.num_original_samples = 500;
        Rng r(64);
        benchmark::DoNotOptimize(
            eval::DistanceToClosestRecord(real, synth, opts, &r).value());
        break;
      }
      case kRandomForestFit: {
        eval::RandomForestOptions opts;
        opts.num_trees = 20;
        opts.max_depth = 8;
        eval::RandomForest rf(opts);
        Rng r(65);
        rf.Fit(x, y, real.schema().num_labels(), &r);
        benchmark::DoNotOptimize(rf.Predict(x.row(0)));
        break;
      }
      case kAqpDiff: {
        eval::AqpDiffOptions opts;
        opts.sample_ratio = 0.05;
        opts.sample_repeats = 5;
        Rng r(66);
        benchmark::DoNotOptimize(
            eval::AqpDiff(real, synth, workload, opts, &r).value());
        break;
      }
      case kFidelity: {
        benchmark::DoNotOptimize(eval::EvaluateFidelity(real, synth));
        break;
      }
      case kHeavyTail: {
        benchmark::DoNotOptimize(eval::RareModeRecall(real, synth).recall);
        benchmark::DoNotOptimize(eval::PerCategoryKl(real, synth));
        break;
      }
    }
  }
  par::SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_Eval)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {2000, 8000}, {1, 2, 4}})
    ->ArgNames({"metric", "rows", "threads"})
    ->Unit(benchmark::kMillisecond);

// The whole suite end to end (the `daisy_cli eval` hot path). Args are
// {rows, threads, auc}; auc = 1 turns on SuiteOptions::utility_auc,
// which scores the AUC from the same classifier fits as the F1.
void BM_EvalSuite(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  Rng rng(67);
  const data::Table real = data::MakeAdultSim(rows, &rng);
  const data::Table synth = data::MakeAdultSim(rows, &rng);
  eval::SuiteOptions opts;
  opts.privacy_samples = 200;
  opts.aqp_workload.num_queries = 25;
  opts.aqp_diff.sample_repeats = 3;
  opts.utility_auc = state.range(2) != 0;
  eval::EvaluationSuite suite(opts);
  par::SetNumThreads(threads);
  for (auto _ : state) {
    auto result = suite.Run(real, synth);
    benchmark::DoNotOptimize(result.value().metrics.size());
  }
  par::SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_EvalSuite)
    ->ArgsProduct({{1000, 4000}, {1, 2, 4}, {0, 1}})
    ->ArgNames({"rows", "threads", "auc"})
    ->Unit(benchmark::kMillisecond);

// One utility classifier's Fit (paper §6.2) on an Adult-sim table at one
// thread, so the time is the algorithm's cost. Args are {kind, rows};
// kind follows eval::AllClassifierKinds(): 0 DT10, 1 DT30, 2 RF10,
// 3 RF20, 4 AB, 5 LR.
void BM_ClassifierFit(benchmark::State& state) {
  const eval::ClassifierKind kind =
      eval::AllClassifierKinds()[static_cast<size_t>(state.range(0))];
  const size_t rows = static_cast<size_t>(state.range(1));
  Rng rng(68);
  const data::Table t = data::MakeAdultSim(rows, &rng);
  const Matrix x = t.FeatureMatrix();
  const std::vector<size_t> y = t.Labels();
  par::SetNumThreads(1);
  for (auto _ : state) {
    auto clf = eval::MakeClassifier(kind);
    Rng r(69);
    clf->Fit(x, y, t.schema().num_labels(), &r);
    benchmark::DoNotOptimize(clf->Predict(x.row(0)));
  }
  par::SetNumThreads(0);
  state.SetLabel(eval::ClassifierKindName(kind));
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ClassifierFit)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {2000, 8000}})
    ->ArgNames({"kind", "rows"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace daisy

BENCHMARK_MAIN();
