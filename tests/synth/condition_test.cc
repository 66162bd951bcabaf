// The condition seam: the one rule that decides which source owns the
// cond vector, and how refusals surface through the trainer and the
// synthesizer (as a Status, leaving nothing half-fitted).
#include <gtest/gtest.h>

#include "data/generators/realistic.h"
#include "data/generators/sdata.h"
#include "synth/mlp_nets.h"
#include "synth/synthesizer.h"
#include "synth/trainer.h"

namespace daisy::synth {
namespace {

GanOptions Tiny() {
  GanOptions opts;
  opts.iterations = 3;
  opts.batch_size = 16;
  opts.g_hidden = {16};
  opts.d_hidden = {16};
  opts.noise_dim = 4;
  opts.snapshots = 1;
  return opts;
}

TEST(ConditionRuleTest, AtMostOneSourceOwnsTheCondVector) {
  struct Case {
    TrainAlgo algo;
    bool conditional;
    SamplerKind sampler;
    bool parent_rows;
    bool ok;
    ConditionKind kind;
  };
  const Case cases[] = {
      {TrainAlgo::kVTrain, false, SamplerKind::kUniform, false, true,
       ConditionKind::kNone},
      {TrainAlgo::kWTrain, false, SamplerKind::kChunkedShuffle, false, true,
       ConditionKind::kNone},
      {TrainAlgo::kVTrain, true, SamplerKind::kUniform, false, true,
       ConditionKind::kLabel},
      {TrainAlgo::kCTrain, false, SamplerKind::kChunkedShuffle, false, true,
       ConditionKind::kLabel},
      {TrainAlgo::kDPTrain, false, SamplerKind::kTrainingBySampling, false,
       true, ConditionKind::kTbs},
      {TrainAlgo::kVTrain, false, SamplerKind::kUniform, true, true,
       ConditionKind::kParentRows},
      {TrainAlgo::kVTrain, true, SamplerKind::kTrainingBySampling, false,
       false, ConditionKind::kNone},
      {TrainAlgo::kCTrain, false, SamplerKind::kTrainingBySampling, false,
       false, ConditionKind::kNone},
      {TrainAlgo::kCTrain, false, SamplerKind::kUniform, true, false,
       ConditionKind::kNone},
      {TrainAlgo::kVTrain, false, SamplerKind::kTrainingBySampling, true,
       false, ConditionKind::kNone},
  };
  for (const Case& c : cases) {
    GanOptions opts;
    opts.algo = c.algo;
    opts.conditional = c.conditional;
    opts.sampler = c.sampler;
    auto kind = ResolveConditionKind(opts, c.parent_rows);
    ASSERT_EQ(kind.ok(), c.ok) << kind.status().ToString();
    if (c.ok) {
      EXPECT_EQ(kind.value(), c.kind);
    } else {
      EXPECT_EQ(kind.status().code(), Status::Code::kInvalidArgument);
      EXPECT_NE(kind.status().message().find("more than one condition"),
                std::string::npos);
    }
  }
}

// Driving the trainer directly, CTrain + TBS is a Status, not a run that
// silently ignores the sampler.
TEST(ConditionRuleTest, TrainerRefusesCTrainPlusTbs) {
  Rng rng(1);
  data::SDataCatOptions copts;
  copts.num_records = 100;
  const data::Table table = data::MakeSDataCat(copts, &rng);
  transform::TransformOptions topts;
  topts.exclude_label = true;
  auto tf = transform::RecordTransformer::Fit(table, topts, &rng);
  MlpGenerator g(4, 2, {16}, tf.segments(), &rng);
  MlpDiscriminator d(tf.sample_dim(), 2, {16}, false, &rng);
  GanOptions opts = Tiny();
  opts.algo = TrainAlgo::kCTrain;
  opts.sampler = SamplerKind::kTrainingBySampling;
  GanTrainer trainer(&g, &d, &tf, opts);
  const TrainResult result = trainer.Train(table, &rng);
  EXPECT_EQ(result.health.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(result.completed_iters, 0u);
  EXPECT_EQ(result.snapshots.size(), 1u);
}

TEST(ConditionRuleTest, RefusedFitLeavesTheSynthesizerUnfitted) {
  Rng rng(2);
  const data::Table adult = data::MakeAdultSim(60, &rng);
  TableSynthesizer empty(Tiny(), {});
  EXPECT_FALSE(empty.Fit(data::Table(adult.schema())).ok());
  EXPECT_FALSE(empty.fitted());

  data::SDataNumOptions nopts;
  nopts.num_records = 60;
  data::Table numeric = data::MakeSDataNum(nopts, &rng);
  GanOptions tbs = Tiny();
  tbs.sampler = SamplerKind::kTrainingBySampling;
  transform::TransformOptions ordinal;
  ordinal.categorical = transform::CategoricalEncoding::kOrdinal;
  TableSynthesizer no_blocks(tbs, ordinal);
  const Status st = no_blocks.Fit(numeric);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  EXPECT_FALSE(no_blocks.fitted());

  TableSynthesizer fitted(Tiny(), {});
  EXPECT_TRUE(fitted.Fit(adult).ok());
  EXPECT_TRUE(fitted.fitted());
  EXPECT_EQ(fitted.condition().kind(), ConditionKind::kNone);
  EXPECT_TRUE(fitted.CheckStandalone().ok());
}

TEST(ConditionRuleTest, ParentRowsAreValidatedAtFit) {
  Rng rng(3);
  const data::Table train = data::MakeAdultSim(60, &rng);
  const Matrix rows = Matrix::Randn(train.num_records(), 3, &rng);

  GanOptions labeled = Tiny();
  labeled.conditional = true;
  TableSynthesizer both(labeled, {});
  EXPECT_EQ(both.FitConditioned(train, rows).code(),
            Status::Code::kInvalidArgument);
  EXPECT_FALSE(both.fitted());

  TableSynthesizer short_rows(Tiny(), {});
  EXPECT_EQ(short_rows.FitConditioned(train, rows.RowRange(0, 10)).code(),
            Status::Code::kInvalidArgument);

  TableSynthesizer child(Tiny(), {});
  ASSERT_TRUE(child.FitConditioned(train, rows).ok());
  EXPECT_EQ(child.condition().kind(), ConditionKind::kParentRows);
  EXPECT_EQ(child.condition().dim(), 3u);
  const Status st = child.CheckStandalone();
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("relational bundle"), std::string::npos)
      << st.message();
}

}  // namespace
}  // namespace daisy::synth
