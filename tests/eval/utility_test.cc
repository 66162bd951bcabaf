#include "eval/utility.h"

#include <gtest/gtest.h>

#include "data/generators/realistic.h"
#include "eval/clustering_eval.h"

namespace daisy::eval {
namespace {

TEST(UtilityTest, IdenticalTrainingDataGivesZeroDiff) {
  Rng rng(1);
  data::Table t = data::MakeAdultSim(600, &rng);
  const auto split = data::SplitTable(t, 4.0 / 6, 1.0 / 6, &rng);
  Rng eval_rng(2);
  // Same data on both sides; classifiers are deterministic given the
  // same rng state, so pass fresh identically-seeded rngs.
  Rng r1(3), r2(3);
  const double f1_a =
      TrainAndScoreF1(split.train, split.test, ClassifierKind::kDt10, &r1);
  const double f1_b =
      TrainAndScoreF1(split.train, split.test, ClassifierKind::kDt10, &r2);
  EXPECT_DOUBLE_EQ(f1_a, f1_b);
}

TEST(UtilityTest, GoodSimDataHasLearnableSignal) {
  Rng rng(4);
  data::Table t = data::MakeAdultSim(1200, &rng);
  const auto split = data::SplitTable(t, 4.0 / 6, 1.0 / 6, &rng);
  Rng eval_rng(5);
  const double f1 =
      TrainAndScoreF1(split.train, split.test, ClassifierKind::kRf10,
                      &eval_rng);
  EXPECT_GT(f1, 0.3);  // minority-label F1 well above zero
}

TEST(UtilityTest, GarbageSyntheticHasLargeDiff) {
  Rng rng(6);
  data::Table t = data::MakeAdultSim(900, &rng);
  const auto split = data::SplitTable(t, 4.0 / 6, 1.0 / 6, &rng);

  // "Synthetic" table with labels randomized: no signal.
  data::Table garbage = split.train;
  Rng grng(7);
  const size_t label_idx = garbage.schema().label_index();
  for (size_t i = 0; i < garbage.num_records(); ++i)
    garbage.set_value(i, label_idx,
                      static_cast<double>(grng.UniformInt(2)));

  Rng e1(8), e2(8);
  const double diff_garbage =
      F1Diff(split.train, garbage, split.test, ClassifierKind::kDt10, &e1);
  const double diff_self =
      F1Diff(split.train, split.train, split.test, ClassifierKind::kDt10,
             &e2);
  EXPECT_DOUBLE_EQ(diff_self, 0.0);
  EXPECT_GT(diff_garbage, 0.05);
}

TEST(UtilityTest, AucScoreIsReasonable) {
  Rng rng(9);
  data::Table t = data::MakeHtru2Sim(900, &rng);
  const auto split = data::SplitTable(t, 4.0 / 6, 1.0 / 6, &rng);
  Rng eval_rng(10);
  double auc = 0.0;
  TrainAndScoreF1(split.train, split.test, ClassifierKind::kRf10, &eval_rng,
                  &auc);
  EXPECT_GT(auc, 0.7);
  EXPECT_LE(auc, 1.0);
}

TEST(ClusteringEvalTest, SelfDiffIsSmall) {
  Rng rng(11);
  data::Table t = data::MakeDigitsSim(600, &rng);
  Rng r1(12);
  const double diff = ClusteringDiff(t, t, &r1);
  // K-Means is seeded per call; identical tables may differ slightly
  // through k-means++ randomness but must stay close.
  EXPECT_LT(diff, 0.12);
}

TEST(ClusteringEvalTest, NoiseTableHasLargerDiff) {
  Rng rng(13);
  data::Table t = data::MakeDigitsSim(600, &rng);
  data::Table noise = t;
  Rng nrng(14);
  for (size_t i = 0; i < noise.num_records(); ++i)
    for (size_t j = 0; j + 1 < noise.num_attributes(); ++j)
      noise.set_value(i, j, nrng.Gaussian());
  Rng r1(15), r2(15);
  EXPECT_LT(ClusteringDiff(t, t, &r1), ClusteringDiff(t, noise, &r2));
}

TEST(SnapshotSelectionTest, PicksBestSnapshotAndLoadsIt) {
  Rng rng(16);
  data::Table t = data::MakeAdultSim(500, &rng);
  const auto split = data::SplitTable(t, 0.7, 0.15, &rng);

  synth::GanOptions gopts;
  gopts.iterations = 40;
  gopts.batch_size = 32;
  gopts.g_hidden = {24};
  gopts.d_hidden = {24};
  gopts.noise_dim = 8;
  gopts.snapshots = 4;
  synth::TableSynthesizer synth(gopts, {});
  synth.Fit(split.train);

  SnapshotSelectionOptions sopts;
  sopts.gen_size = 200;
  Rng sel_rng(17);
  const auto curve = SnapshotF1Curve(&synth, split.valid, sopts, &sel_rng);
  EXPECT_EQ(curve.size(), synth.num_snapshots());

  Rng sel_rng2(17);
  const size_t best = SelectBestSnapshot(&synth, split.valid, sopts,
                                         &sel_rng2);
  EXPECT_LT(best, synth.num_snapshots());
  for (double f1 : curve) EXPECT_LE(f1, curve[best] + 1e-9);
}

}  // namespace
}  // namespace daisy::eval
