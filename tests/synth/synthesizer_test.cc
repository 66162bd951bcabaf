// End-to-end TableSynthesizer tests across the design space: every
// generator architecture x training algorithm combination must train
// and produce schema-valid synthetic tables.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/columnar.h"
#include "data/generators/realistic.h"
#include "data/generators/sdata.h"
#include "synth/dp_accountant.h"
#include "synth/synthesizer.h"

namespace daisy::synth {
namespace {

GanOptions FastOptions() {
  GanOptions opts;
  opts.iterations = 30;
  opts.batch_size = 32;
  opts.g_hidden = {32};
  opts.d_hidden = {32};
  opts.lstm_hidden = 24;
  opts.lstm_feature = 12;
  opts.noise_dim = 8;
  opts.snapshots = 3;
  return opts;
}

void ExpectValidTable(const data::Table& synth, const data::Table& real,
                      size_t n) {
  EXPECT_EQ(synth.num_records(), n);
  ASSERT_EQ(synth.num_attributes(), real.num_attributes());
  for (size_t j = 0; j < real.num_attributes(); ++j) {
    const auto& attr = real.schema().attribute(j);
    EXPECT_EQ(synth.schema().attribute(j).name, attr.name);
    if (attr.is_categorical()) {
      for (size_t i = 0; i < synth.num_records(); ++i)
        EXPECT_LT(synth.category(i, j), attr.domain_size());
    }
  }
}

struct DesignPoint {
  GeneratorArch arch;
  TrainAlgo algo;
  bool conditional;
  const char* name;
};

class DesignSpaceTest : public ::testing::TestWithParam<DesignPoint> {};

TEST_P(DesignSpaceTest, FitAndGenerate) {
  const auto& point = GetParam();
  Rng rng(11);
  data::Table train = data::MakeAdultSim(300, &rng);

  GanOptions opts = FastOptions();
  opts.generator = point.arch;
  opts.algo = point.algo;
  opts.conditional = point.conditional;

  transform::TransformOptions topts;
  topts.gmm_components = 3;

  TableSynthesizer synth(opts, topts);
  synth.Fit(train);
  Rng gen_rng(99);
  data::Table fake = synth.Generate(150, &gen_rng);
  ExpectValidTable(fake, train, 150);

  // Training produced losses and snapshots.
  EXPECT_EQ(synth.train_result().g_losses.size(), opts.iterations);
  EXPECT_GE(synth.num_snapshots(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Design, DesignSpaceTest,
    ::testing::Values(
        DesignPoint{GeneratorArch::kMlp, TrainAlgo::kVTrain, false,
                    "mlp_vtrain"},
        DesignPoint{GeneratorArch::kMlp, TrainAlgo::kWTrain, false,
                    "mlp_wtrain"},
        DesignPoint{GeneratorArch::kMlp, TrainAlgo::kCTrain, true,
                    "mlp_ctrain"},
        DesignPoint{GeneratorArch::kMlp, TrainAlgo::kDPTrain, false,
                    "mlp_dptrain"},
        DesignPoint{GeneratorArch::kMlp, TrainAlgo::kVTrain, true,
                    "mlp_cganv"},
        DesignPoint{GeneratorArch::kLstm, TrainAlgo::kVTrain, false,
                    "lstm_vtrain"},
        DesignPoint{GeneratorArch::kLstm, TrainAlgo::kCTrain, true,
                    "lstm_ctrain"},
        DesignPoint{GeneratorArch::kCnn, TrainAlgo::kVTrain, false,
                    "cnn_vtrain"},
        DesignPoint{GeneratorArch::kCnn, TrainAlgo::kWTrain, false,
                    "cnn_wtrain"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(SynthesizerTest, SnapshotRestoreChangesOutput) {
  Rng rng(21);
  data::Table train = data::MakeHtru2Sim(300, &rng);
  GanOptions opts = FastOptions();
  opts.iterations = 40;
  opts.snapshots = 4;
  TableSynthesizer synth(opts, {});
  synth.Fit(train);
  ASSERT_GE(synth.num_snapshots(), 2u);

  Rng g1(7), g2(7);
  synth.UseSnapshot(0);
  data::Table early = synth.Generate(64, &g1);
  synth.UseFinal();
  data::Table final_t = synth.Generate(64, &g2);
  // Same generation randomness, different parameters -> different data.
  double diff = 0.0;
  for (size_t i = 0; i < 64; ++i)
    diff += std::fabs(early.value(i, 0) - final_t.value(i, 0));
  EXPECT_GT(diff, 1e-9);
}

TEST(SynthesizerTest, ConditionalPreservesLabelDistribution) {
  Rng rng(22);
  data::Table train = data::MakeCensusSim(600, &rng);  // 5% positive
  GanOptions opts = FastOptions();
  opts.algo = TrainAlgo::kCTrain;
  TableSynthesizer synth(opts, {});
  synth.Fit(train);
  Rng gen_rng(5);
  data::Table fake = synth.Generate(2000, &gen_rng);
  const auto counts = fake.LabelCounts();
  const double pos_ratio = static_cast<double>(counts[1]) / 2000.0;
  // Labels are drawn from the training distribution.
  EXPECT_NEAR(pos_ratio, 0.05, 0.03);
}

TEST(SynthesizerTest, LstmDiscriminatorOption) {
  Rng rng(23);
  data::Table train = data::MakeAdultSim(200, &rng);
  GanOptions opts = FastOptions();
  opts.iterations = 10;
  opts.discriminator = DiscriminatorArch::kLstm;
  TableSynthesizer synth(opts, {});
  synth.Fit(train);
  Rng gen_rng(1);
  data::Table fake = synth.Generate(50, &gen_rng);
  ExpectValidTable(fake, train, 50);
}

TEST(SynthesizerTest, SimplifiedDiscriminatorOption) {
  Rng rng(24);
  data::Table train = data::MakeAdultSim(200, &rng);
  GanOptions opts = FastOptions();
  opts.simplified_discriminator = true;
  TableSynthesizer synth(opts, {});
  synth.Fit(train);
  Rng gen_rng(1);
  ExpectValidTable(synth.Generate(50, &gen_rng), train, 50);
}

TEST(SynthesizerTest, WorksOnPurelyCategoricalData) {
  Rng rng(25);
  data::SDataCatOptions copts;
  copts.num_records = 300;
  data::Table train = data::MakeSDataCat(copts, &rng);
  GanOptions opts = FastOptions();
  TableSynthesizer synth(opts, {});
  synth.Fit(train);
  Rng gen_rng(2);
  ExpectValidTable(synth.Generate(100, &gen_rng), train, 100);
}

TEST(SynthesizerTest, WorksOnPurelyNumericalData) {
  Rng rng(26);
  data::SDataNumOptions nopts;
  nopts.num_records = 300;
  data::Table train = data::MakeSDataNum(nopts, &rng);
  GanOptions opts = FastOptions();
  TableSynthesizer synth(opts, {});
  synth.Fit(train);
  Rng gen_rng(3);
  ExpectValidTable(synth.Generate(100, &gen_rng), train, 100);
}

// Data the condition source cannot train on comes back as a Status from
// either Fit overload, before the transformer fit — never an abort.
TEST(SynthesizerTest, EmptyTableIsRefusedWithStatus) {
  Rng rng(27);
  const data::Table empty(data::MakeAdultSim(10, &rng).schema());
  TableSynthesizer synth(FastOptions(), {});
  const Status st = synth.Fit(empty);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("empty table"), std::string::npos)
      << st.message();
}

TEST(SynthesizerTest, EmptyPagedTableIsRefusedWithStatus) {
  Rng rng(28);
  const data::Table empty(data::MakeAdultSim(10, &rng).schema());
  const std::string path = ::testing::TempDir() + "daisy_empty_fit_" +
                           std::to_string(::getpid()) + ".dcol";
  ASSERT_TRUE(data::WriteColumnar(empty, path, /*page_rows=*/64).ok());
  auto paged = data::PagedTable::Open(path, {});
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  TableSynthesizer synth(FastOptions(), {});
  const Status st = synth.Fit(*paged.value());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  std::remove(path.c_str());
}

TEST(SynthesizerTest, LabelConditioningOnUnlabeledTableIsRefused) {
  Rng rng(29);
  data::SDataNumOptions nopts;
  nopts.num_records = 50;
  const data::Table labeled = data::MakeSDataNum(nopts, &rng);
  std::vector<data::Attribute> attrs;
  for (size_t j = 0; j < labeled.num_attributes(); ++j)
    attrs.push_back(labeled.schema().attribute(j));
  data::Table unlabeled{data::Schema(attrs)};
  for (size_t i = 0; i < labeled.num_records(); ++i) {
    std::vector<double> rec(labeled.num_attributes());
    for (size_t j = 0; j < rec.size(); ++j) rec[j] = labeled.value(i, j);
    unlabeled.AppendRecord(rec);
  }
  for (const TrainAlgo algo : {TrainAlgo::kVTrain, TrainAlgo::kCTrain}) {
    GanOptions opts = FastOptions();
    opts.algo = algo;
    opts.conditional = true;
    TableSynthesizer synth(opts, {});
    const Status st = synth.Fit(unlabeled);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find("labeled table"), std::string::npos)
        << st.message();
  }
}

TEST(DpAccountantTest, EpsilonDecreasesWithNoise) {
  const double e1 = ApproxEpsilon(0.5, 100, 32, 1000);
  const double e2 = ApproxEpsilon(2.0, 100, 32, 1000);
  EXPECT_GT(e1, e2);
}

TEST(DpAccountantTest, EpsilonGrowsWithIterations) {
  EXPECT_LT(ApproxEpsilon(1.0, 50, 32, 1000),
            ApproxEpsilon(1.0, 500, 32, 1000));
}

TEST(DpAccountantTest, NoiseForEpsilonInverts) {
  const double eps = 0.8;
  const double noise = NoiseForEpsilon(eps, 200, 32, 1000);
  EXPECT_NEAR(ApproxEpsilon(noise, 200, 32, 1000), eps, 1e-9);
}

}  // namespace
}  // namespace daisy::synth
