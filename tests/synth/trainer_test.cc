// Behavioural tests of the four training algorithms (Algorithms 1-4):
// loss bookkeeping, WGAN weight clipping, DP gradient noising, snapshot
// cadence, and that adversarial training actually improves the
// generator's distribution fit.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "data/generators/sdata.h"
#include "obs/metrics.h"
#include "stats/metrics.h"
#include "synth/lstm_nets.h"
#include "synth/mlp_nets.h"
#include "synth/trainer.h"

namespace daisy::synth {
namespace {

struct Nets {
  std::unique_ptr<transform::RecordTransformer> transformer;
  std::unique_ptr<MlpGenerator> g;
  std::unique_ptr<MlpDiscriminator> d;
};

Nets BuildNets(const data::Table& table, size_t cond_dim, Rng* rng) {
  Nets nets;
  transform::TransformOptions topts;
  topts.exclude_label = cond_dim > 0;
  nets.transformer = std::make_unique<transform::RecordTransformer>(
      transform::RecordTransformer::Fit(table, topts, rng));
  nets.g = std::make_unique<MlpGenerator>(
      8, cond_dim, std::vector<size_t>{24}, nets.transformer->segments(),
      rng);
  nets.d = std::make_unique<MlpDiscriminator>(
      nets.transformer->sample_dim(), cond_dim, std::vector<size_t>{24},
      false, rng);
  return nets;
}

data::Table SmallTable(Rng* rng) {
  data::SDataCatOptions opts;
  opts.num_records = 300;
  return data::MakeSDataCat(opts, rng);
}

GanOptions SmallOptions(TrainAlgo algo) {
  GanOptions opts;
  opts.algo = algo;
  opts.iterations = 25;
  opts.batch_size = 16;
  opts.snapshots = 5;
  return opts;
}

TEST(TrainerTest, VTrainRecordsLossesAndSnapshots) {
  Rng rng(1);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, 0, &rng);
  GanOptions opts = SmallOptions(TrainAlgo::kVTrain);
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  TrainResult result = trainer.Train(table, &rng);
  EXPECT_EQ(result.g_losses.size(), opts.iterations);
  EXPECT_EQ(result.d_losses.size(), opts.iterations);
  EXPECT_EQ(result.snapshots.size(), opts.snapshots);
  EXPECT_EQ(result.snapshot_iters.back(), opts.iterations);
  for (double loss : result.g_losses) EXPECT_TRUE(std::isfinite(loss));
  for (double loss : result.d_losses) EXPECT_TRUE(std::isfinite(loss));
}

TEST(TrainerTest, WTrainClipsDiscriminatorWeights) {
  Rng rng(2);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, 0, &rng);
  GanOptions opts = SmallOptions(TrainAlgo::kWTrain);
  opts.d_steps = 2;
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  trainer.Train(table, &rng);
  for (const nn::Parameter* p : nets.d->Params())
    EXPECT_LE(p->value.MaxAbs(), kWeightClip + 1e-12) << p->name;
}

TEST(TrainerTest, VTrainDoesNotClipWeights) {
  Rng rng(3);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, 0, &rng);
  GanOptions opts = SmallOptions(TrainAlgo::kVTrain);
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  trainer.Train(table, &rng);
  double max_abs = 0.0;
  for (const nn::Parameter* p : nets.d->Params())
    max_abs = std::max(max_abs, p->value.MaxAbs());
  EXPECT_GT(max_abs, 0.05);
}

TEST(TrainerTest, CTrainRequiresConditionalNets) {
  Rng rng(4);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, /*cond_dim=*/2, &rng);
  GanOptions opts = SmallOptions(TrainAlgo::kCTrain);
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  TrainResult result = trainer.Train(table, &rng);
  EXPECT_EQ(result.g_losses.size(), opts.iterations);
}

TEST(TrainerTest, CTrainWithStarvedLabelStaysFiniteAndReportsIt) {
  // Regression for the rare-label sweep: a label present in the schema
  // but absent from the data must neither NaN the losses nor silently
  // vanish — it is skipped AND surfaced as starved_labels telemetry.
  Rng rng(30);
  data::Schema schema({data::Attribute::Numerical("x"),
                       data::Attribute::Categorical("c", {"a", "b"}),
                       data::Attribute::Categorical("label", {"n", "p"})},
                      2);
  data::Table table(schema);
  for (int i = 0; i < 120; ++i)
    table.AppendRecord({rng.Gaussian(), static_cast<double>(i % 2), 0.0});

  Nets nets = BuildNets(table, /*cond_dim=*/2, &rng);
  GanOptions opts = SmallOptions(TrainAlgo::kCTrain);
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  obs::MemorySink sink;
  TrainResult result = trainer.Train(table, &rng, &sink);

  EXPECT_TRUE(result.health.ok()) << result.health.ToString();
  EXPECT_EQ(result.completed_iters, opts.iterations);
  for (double loss : result.g_losses) EXPECT_TRUE(std::isfinite(loss));
  for (double loss : result.d_losses) EXPECT_TRUE(std::isfinite(loss));
  ASSERT_FALSE(sink.records().empty());
  for (const auto& rec : sink.records())
    EXPECT_EQ(rec.starved_labels, 1u);  // label "p" has zero records
}

TEST(TrainerTest, CriticRegBoundsPostClipGradientAndStaysFinite) {
  auto run = [](double reg) {
    Rng rng(31);
    data::SDataCatOptions copts;
    copts.num_records = 300;
    data::Table table = MakeSDataCat(copts, &rng);
    Rng nets_rng(32);
    Nets nets = BuildNets(table, 0, &nets_rng);
    GanOptions opts;
    opts.algo = TrainAlgo::kVTrain;  // no weight clipping in the way
    opts.iterations = 25;
    opts.batch_size = 16;
    opts.critic_reg = reg;
    GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                       opts);
    Rng train_rng(33);
    TrainResult result = trainer.Train(table, &train_rng);
    EXPECT_TRUE(result.health.ok()) << result.health.ToString();
    for (double loss : result.d_losses) EXPECT_TRUE(std::isfinite(loss));
    double sum = 0.0;
    for (const nn::Parameter* p : nets.d->Params()) sum += p->value.Sum();
    return sum;
  };
  // A tight bound must actually change the critic's trajectory.
  EXPECT_NE(run(0.0), run(1e-3));
}

TEST(TrainerTest, MismatchedCondDimsAbort) {
  Rng rng(5);
  data::Table table = SmallTable(&rng);
  transform::TransformOptions topts;
  auto tf = transform::RecordTransformer::Fit(table, topts, &rng);
  MlpGenerator g(8, 2, {16}, tf.segments(), &rng);
  MlpDiscriminator d(tf.sample_dim(), 0, {16}, false, &rng);
  GanOptions opts = SmallOptions(TrainAlgo::kVTrain);
  EXPECT_DEATH(GanTrainer(&g, &d, &tf, opts), "DAISY_CHECK");
}

TEST(TrainerTest, TrainingImprovesMarginalFit) {
  // After a few hundred VTrain iterations the generated categorical
  // marginals should be much closer to the real ones than at init.
  Rng rng(6);
  data::SDataCatOptions copts;
  copts.num_records = 800;
  copts.positive_ratio = 0.5;
  data::Table table = MakeSDataCat(copts, &rng);

  auto marginal_kl = [&](Generator* g,
                         const transform::RecordTransformer& tf) {
    Rng gen_rng(7);
    Matrix z = Matrix::Randn(800, g->noise_dim(), &gen_rng);
    Matrix samples = g->Forward(z, Matrix(), false);
    data::Table fake = tf.InverseTransform(samples);
    double total = 0.0;
    for (size_t j = 0; j < 5; ++j) {
      const size_t dom = table.schema().attribute(j).domain_size();
      std::vector<double> hr(dom, 0.0), hf(dom, 0.0);
      for (size_t i = 0; i < table.num_records(); ++i)
        hr[table.category(i, j)] += 1.0;
      for (size_t i = 0; i < fake.num_records(); ++i)
        hf[fake.category(i, j)] += 1.0;
      total += stats::KlDivergence(hr, hf);
    }
    return total;
  };

  Rng init_rng(8);
  Nets nets = BuildNets(table, 0, &init_rng);
  const double kl_before = marginal_kl(nets.g.get(), *nets.transformer);

  GanOptions opts = SmallOptions(TrainAlgo::kVTrain);
  opts.iterations = 300;
  opts.batch_size = 64;
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  Rng train_rng(9);
  trainer.Train(table, &train_rng);
  const double kl_after = marginal_kl(nets.g.get(), *nets.transformer);
  EXPECT_LT(kl_after, kl_before * 0.5);
}

TEST(TrainerTest, DpTrainPerturbsTraining) {
  // Same seed, with and without DP noise: parameters must diverge, and
  // the DP run must still produce finite losses.
  auto run = [](TrainAlgo algo, double noise) {
    Rng rng(10);
    data::SDataCatOptions copts;
    copts.num_records = 300;
    data::Table table = MakeSDataCat(copts, &rng);
    Rng nets_rng(11);
    Nets nets = BuildNets(table, 0, &nets_rng);
    GanOptions opts = SmallOptions(algo);
    opts.dp_noise_scale = noise;
    GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                       opts);
    Rng train_rng(12);
    trainer.Train(table, &train_rng);
    double sum = 0.0;
    for (const nn::Parameter* p : nets.g->Params()) sum += p->value.Sum();
    return sum;
  };
  const double w_sum = run(TrainAlgo::kWTrain, 0.0);
  const double dp_sum = run(TrainAlgo::kDPTrain, 4.0);
  EXPECT_TRUE(std::isfinite(dp_sum));
  EXPECT_NE(w_sum, dp_sum);
}

TEST(TrainerTest, SnapshotStatesDifferAcrossTraining) {
  Rng rng(13);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, 0, &rng);
  GanOptions opts = SmallOptions(TrainAlgo::kVTrain);
  opts.iterations = 50;
  opts.snapshots = 5;
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  TrainResult result = trainer.Train(table, &rng);
  ASSERT_GE(result.snapshots.size(), 2u);
  double diff = 0.0;
  const auto& first = result.snapshots.front();
  const auto& last = result.snapshots.back();
  for (size_t i = 0; i < first.size(); ++i)
    diff += (first[i] - last[i]).MaxAbs();
  EXPECT_GT(diff, 1e-6);
}

TEST(TrainerTest, HealthyRunEmitsFiniteMetrics) {
  Rng rng(14);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, 0, &rng);
  GanOptions opts = SmallOptions(TrainAlgo::kVTrain);
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  obs::MemorySink sink;
  TrainResult result = trainer.Train(table, &rng, &sink);
  EXPECT_TRUE(result.health.ok()) << result.health.ToString();
  EXPECT_EQ(result.completed_iters, opts.iterations);

  ASSERT_EQ(sink.records().size(), opts.iterations);  // log_every = 1
  double prev_wall = 0.0;
  for (size_t i = 0; i < sink.records().size(); ++i) {
    const obs::MetricRecord& rec = sink.records()[i];
    EXPECT_EQ(rec.run, "gan.vtrain");
    EXPECT_EQ(rec.iter, i + 1);
    EXPECT_TRUE(std::isfinite(rec.d_loss));
    EXPECT_TRUE(std::isfinite(rec.g_loss));
    EXPECT_TRUE(std::isfinite(rec.d_grad_norm));
    EXPECT_TRUE(std::isfinite(rec.g_grad_norm));
    EXPECT_GT(rec.g_grad_norm, 0.0);
    EXPECT_GT(rec.param_norm, 0.0);
    EXPECT_GE(rec.iter_ms, 0.0);
    EXPECT_GE(rec.wall_ms, prev_wall);
    prev_wall = rec.wall_ms;
    EXPECT_GT(rec.threads, 0u);
    EXPECT_EQ(rec.seed, opts.seed);
  }
}

TEST(TrainerTest, LogEveryThinsRecords) {
  Rng rng(15);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, 0, &rng);
  GanOptions opts = SmallOptions(TrainAlgo::kVTrain);
  opts.iterations = 25;
  opts.log_every = 10;
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  obs::MemorySink sink;
  trainer.Train(table, &rng, &sink);
  // Iterations 10 and 20, plus the always-logged final iteration 25.
  ASSERT_EQ(sink.records().size(), 3u);
  EXPECT_EQ(sink.records()[0].iter, 10u);
  EXPECT_EQ(sink.records()[1].iter, 20u);
  EXPECT_EQ(sink.records()[2].iter, 25u);
}

TEST(TrainerTest, InjectedNanStopsWTrainWithStatusNotAbort) {
  Rng rng(16);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, 0, &rng);
  // Poison one generator weight: every forward pass, loss and norm
  // downstream of it is NaN from iteration 1 on.
  nets.g->Params().front()->value(0, 0) =
      std::numeric_limits<double>::quiet_NaN();

  GanOptions opts = SmallOptions(TrainAlgo::kWTrain);
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  obs::MemorySink sink;
  TrainResult result = trainer.Train(table, &rng, &sink);

  ASSERT_FALSE(result.health.ok());
  EXPECT_EQ(result.health.code(), Status::Code::kFailedPrecondition);
  EXPECT_NE(result.health.ToString().find("iteration 1"), std::string::npos)
      << result.health.ToString();
  EXPECT_NE(result.health.ToString().find("non-finite"), std::string::npos)
      << result.health.ToString();
  EXPECT_EQ(result.completed_iters, 0u);

  // The failing iteration's losses belong to the Status, not the data.
  EXPECT_TRUE(result.d_losses.empty());
  EXPECT_TRUE(result.g_losses.empty());
  for (double loss : result.g_losses) EXPECT_TRUE(std::isfinite(loss));

  // The failing record is always surfaced to the sink for post-mortems.
  ASSERT_EQ(sink.records().size(), 1u);
  EXPECT_EQ(sink.records()[0].iter, 1u);

  // Last snapshot = state at completed_iters (here: the initial state).
  ASSERT_FALSE(result.snapshots.empty());
  EXPECT_EQ(result.snapshot_iters.back(), 0u);
}

TEST(TrainerTest, ExplosionRollsBackToLastHealthySnapshot) {
  Rng rng(17);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, 0, &rng);

  // Force a real mid-run explosion: an absurd generator learning rate
  // makes Adam random-walk the parameters outward by ~lr per coordinate
  // per step, so the norm needs several iterations to cross a limit set
  // well above the initial value — the sentinel trips with a healthy
  // prefix to roll back to.
  const double init_norm = nn::GlobalParamNorm(nets.g->Params());
  GanOptions opts = SmallOptions(TrainAlgo::kVTrain);
  opts.iterations = 200;
  opts.lr_g = 0.5;
  opts.sentinel.param_limit = init_norm + 50.0;
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  TrainResult result = trainer.Train(table, &rng);

  ASSERT_FALSE(result.health.ok());
  EXPECT_NE(result.health.ToString().find("param_norm"), std::string::npos)
      << result.health.ToString();
  EXPECT_LT(result.completed_iters, opts.iterations);

  // Rollback contract: the generator ends at the last state that passed
  // the check, so its norm respects the limit again...
  EXPECT_LE(nn::GlobalParamNorm(nets.g->Params()),
            opts.sentinel.param_limit);
  // ...and the final snapshot is exactly that state.
  ASSERT_FALSE(result.snapshots.empty());
  EXPECT_EQ(result.snapshot_iters.back(), result.completed_iters);
  const StateDict current = GetState(nets.g->Params());
  const StateDict& snap = result.snapshots.back();
  ASSERT_EQ(current.size(), snap.size());
  for (size_t i = 0; i < current.size(); ++i)
    EXPECT_DOUBLE_EQ((current[i] - snap[i]).MaxAbs(), 0.0);
  // The healthy prefix of the loss traces stays finite.
  EXPECT_EQ(result.g_losses.size(), result.completed_iters);
  for (double loss : result.g_losses) EXPECT_TRUE(std::isfinite(loss));
}

TEST(TrainerTest, EmptyTableReturnsStatusNotAbort) {
  Rng rng(18);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, 0, &rng);
  GanOptions opts = SmallOptions(TrainAlgo::kVTrain);
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  data::Table empty(table.schema());
  TrainResult result = trainer.Train(empty, &rng);
  ASSERT_FALSE(result.health.ok());
  EXPECT_EQ(result.health.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(result.completed_iters, 0u);
  ASSERT_EQ(result.snapshots.size(), 1u);  // initial state, iter 0
  EXPECT_EQ(result.snapshot_iters.back(), 0u);
}

// The vectorized DP engine runs only Linear/activation critics; asking
// for it with an LSTM critic is a refused run, not an abort.
TEST(TrainerTest, UnsupportedDpEngineReturnsStatusNotAbort) {
  Rng rng(23);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, 0, &rng);
  LstmDiscriminator lstm(nets.transformer->segments(), 0, 8, &rng);
  GanOptions opts = SmallOptions(TrainAlgo::kDPTrain);
  opts.dp_engine = DpEngineKind::kVectorized;
  GanTrainer trainer(nets.g.get(), &lstm, nets.transformer.get(), opts);
  TrainResult result = trainer.Train(table, &rng);
  EXPECT_EQ(result.health.code(), Status::Code::kInvalidArgument)
      << result.health.ToString();
  EXPECT_EQ(result.completed_iters, 0u);
  EXPECT_TRUE(result.d_losses.empty());
}

TEST(TrainerTest, DisabledSentinelLetsNanThrough) {
  Rng rng(19);
  data::Table table = SmallTable(&rng);
  Nets nets = BuildNets(table, 0, &rng);
  nets.g->Params().front()->value(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  GanOptions opts = SmallOptions(TrainAlgo::kWTrain);
  opts.sentinel.enabled = false;
  GanTrainer trainer(nets.g.get(), nets.d.get(), nets.transformer.get(),
                     opts);
  TrainResult result = trainer.Train(table, &rng);
  // Opt-out restores the old behavior: the run limps through all
  // iterations and the traces carry the NaNs.
  EXPECT_TRUE(result.health.ok());
  EXPECT_EQ(result.completed_iters, opts.iterations);
  EXPECT_EQ(result.g_losses.size(), opts.iterations);
}

}  // namespace
}  // namespace daisy::synth
