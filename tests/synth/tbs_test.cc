// Training-by-sampling (CTGAN-style, arXiv:2010.00638) contract tests:
// the sampler's log-frequency draw stream, end-to-end bitwise
// determinism of a TBS fit across thread counts and forced ISAs, the
// paged-.dcol equivalence through the TrainDataSource seam, model
// persistence, and the headline acceptance claim of the heavy-tail
// robustness pack — on a 1:1000 Zipf table, TBS strictly improves
// rare-mode recall and per-category KL over uniform sampling.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "data/columnar.h"
#include "data/generators/skewed.h"
#include "eval/fidelity.h"
#include "synth/sampler.h"
#include "synth/synthesizer.h"

namespace daisy::synth {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void ExpectSameTable(const data::Table& a, const data::Table& b) {
  ASSERT_EQ(a.num_records(), b.num_records());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t i = 0; i < a.num_records(); ++i)
    for (size_t j = 0; j < a.num_attributes(); ++j)
      ASSERT_EQ(a.value(i, j), b.value(i, j))
          << "cell (" << i << ", " << j << ")";
}

// ---------------------------------------------------------------------------
// TrainingBySamplingSampler unit contract.

TEST(TrainingBySamplingSamplerTest, PoolsAndLogWeights) {
  // One column, domain 3: category 0 x4 rows, category 1 x1, 2 absent.
  TrainingBySamplingSampler sampler({{0, 0, 1, 0, 0}}, {3});
  ASSERT_EQ(sampler.num_blocks(), 1u);
  EXPECT_EQ(sampler.pool_size(0, 0), 4u);
  EXPECT_EQ(sampler.pool_size(0, 1), 1u);
  EXPECT_EQ(sampler.pool_size(0, 2), 0u);
  EXPECT_DOUBLE_EQ(sampler.category_weight(0, 0), std::log(5.0));
  EXPECT_DOUBLE_EQ(sampler.category_weight(0, 1), std::log(2.0));
  EXPECT_DOUBLE_EQ(sampler.category_weight(0, 2), 0.0);
}

TEST(TrainingBySamplingSamplerTest, DrawsAreConsistentAndSkipAbsent) {
  // Two columns over 6 rows; column 1 has an absent category (index 2).
  const std::vector<std::vector<size_t>> cols = {{0, 1, 0, 1, 0, 1},
                                                 {0, 0, 0, 1, 1, 3}};
  TrainingBySamplingSampler sampler(cols, {2, 4});
  Rng rng(7);
  const auto draws = sampler.SampleBatch(500, &rng);
  ASSERT_EQ(draws.size(), 500u);
  for (const auto& d : draws) {
    ASSERT_LT(d.block, 2u);
    ASSERT_LT(d.row, 6u);
    // The drawn row really carries the drawn (block, category) pair.
    EXPECT_EQ(cols[d.block][d.row], d.category);
    EXPECT_FALSE(d.block == 1 && d.category == 2) << "absent category drawn";
  }
}

TEST(TrainingBySamplingSamplerTest, LogFrequencyFlattensTheZipfHead) {
  // 1000 rows of category 0, 10 of category 1: raw frequency would give
  // the tail ~1% of draws; log(1+count) gives it log(11)/log(1001)+...
  // ~25%. Assert the oversampling is at least 10x the raw rate.
  std::vector<size_t> col(1010, 0);
  for (size_t i = 0; i < 10; ++i) col[1000 + i] = 1;
  TrainingBySamplingSampler sampler({col}, {2});
  Rng rng(8);
  size_t tail = 0;
  const auto draws = sampler.SampleBatch(2000, &rng);
  for (const auto& d : draws) tail += d.category;
  EXPECT_GT(tail, 200u);  // >10% of draws vs ~1% raw frequency
}

// ---------------------------------------------------------------------------
// End-to-end determinism: a TBS fit + generate is a pure function of
// the options and seeds — independent of DAISY_THREADS and DAISY_SIMD.

data::Table SkewedTable(size_t records = 600) {
  Rng rng(50);
  data::SkewedTableOptions opts;
  opts.num_records = records;
  opts.label_imbalance = 99;
  return data::MakeSkewedTable(opts, &rng);
}

GanOptions TbsOptions() {
  GanOptions opts;
  opts.algo = TrainAlgo::kVTrain;
  opts.sampler = SamplerKind::kTrainingBySampling;
  opts.iterations = 20;
  opts.batch_size = 16;
  opts.snapshots = 2;
  opts.critic_reg = 5.0;
  opts.seed = 51;
  return opts;
}

struct FitOutput {
  std::string model_bytes;
  data::Table generated{data::Schema({data::Attribute::Numerical("x")})};
};

FitOutput FitAndGenerate(const std::string& dir) {
  const data::Table table = SkewedTable();
  TableSynthesizer synth(TbsOptions(), transform::TransformOptions{});
  const Status health = synth.Fit(table);
  EXPECT_TRUE(health.ok()) << health.ToString();
  const std::string path = dir + "/model.bin";
  EXPECT_TRUE(synth.Save(path).ok());
  FitOutput out;
  out.model_bytes = FileBytes(path);
  Rng gen_rng(52);
  out.generated = synth.Generate(300, &gen_rng);
  return out;
}

TEST(TbsDeterminismTest, ModelBytesIdenticalAcrossThreadCounts) {
  const std::string dir = FreshDir("tbs_threads");
  const size_t restore = par::NumThreads();
  par::SetNumThreads(1);
  const FitOutput base = FitAndGenerate(dir);
  ASSERT_FALSE(base.model_bytes.empty());
  for (size_t threads : {2u, 7u}) {
    par::SetNumThreads(threads);
    const FitOutput other = FitAndGenerate(dir);
    EXPECT_EQ(base.model_bytes, other.model_bytes)
        << "model bytes diverged at threads=" << threads;
    ExpectSameTable(base.generated, other.generated);
  }
  par::SetNumThreads(restore);
}

TEST(TbsDeterminismTest, ModelBytesIdenticalScalarVsAvx2) {
  if (!kern::IsaAvailable(kern::Isa::kAvx2)) {
    GTEST_SKIP() << "AVX2 kernel table unavailable - forced-ISA "
                    "comparison not run";
  }
  const std::string dir = FreshDir("tbs_isa");
  kern::SetIsaForTesting(kern::Isa::kScalar);
  const FitOutput scalar = FitAndGenerate(dir);
  kern::SetIsaForTesting(kern::Isa::kAvx2);
  const FitOutput avx2 = FitAndGenerate(dir);
  kern::ResetIsaForTesting();
  EXPECT_EQ(scalar.model_bytes, avx2.model_bytes);
  ExpectSameTable(scalar.generated, avx2.generated);
}

// ---------------------------------------------------------------------------
// Out-of-core: a TBS fit from a paged .dcol table goes through the
// TrainDataSource::CategoryColumn seam and must match the in-memory
// fit byte for byte.

TEST(TbsPagedTest, DcolFitMatchesInMemoryFitBitwise) {
  const std::string dir = FreshDir("tbs_dcol");
  const data::Table table = SkewedTable();

  TableSynthesizer mem(TbsOptions(), transform::TransformOptions{});
  ASSERT_TRUE(mem.Fit(table).ok());
  ASSERT_TRUE(mem.Save(dir + "/mem.bin").ok());

  const std::string dcol = dir + "/table.dcol";
  ASSERT_TRUE(data::WriteColumnar(table, dcol, /*page_rows=*/64).ok());
  data::PagedTable::Options popts;
  popts.page_budget = 3;
  auto paged = data::PagedTable::Open(dcol, popts);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  TableSynthesizer ooc(TbsOptions(), transform::TransformOptions{});
  const Status health = ooc.Fit(*paged.value());
  ASSERT_TRUE(health.ok()) << health.ToString();
  ASSERT_TRUE(ooc.Save(dir + "/ooc.bin").ok());

  EXPECT_EQ(FileBytes(dir + "/mem.bin"), FileBytes(dir + "/ooc.bin"));
  Rng r1(53), r2(53);
  ExpectSameTable(mem.Generate(200, &r1), ooc.Generate(200, &r2));
}

// ---------------------------------------------------------------------------
// Persistence: the current format round-trips the TBS cond layout and the
// raw generation-time frequencies.

TEST(TbsPersistenceTest, SaveLoadGenerateRoundTrip) {
  const std::string dir = FreshDir("tbs_persist");
  const data::Table table = SkewedTable();
  TableSynthesizer synth(TbsOptions(), transform::TransformOptions{});
  ASSERT_TRUE(synth.Fit(table).ok());
  const std::string path = dir + "/model.bin";
  ASSERT_TRUE(synth.Save(path).ok());
  EXPECT_EQ(FileBytes(path).rfind("daisy-model-v3", 0), 0u)
      << "TBS models persist in the current (v3) format";

  auto loaded = TableSynthesizer::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Rng r1(54), r2(54);
  ExpectSameTable(synth.Generate(250, &r1),
                  loaded.value()->Generate(250, &r2));
}

// ---------------------------------------------------------------------------
// Guard rails.

TEST(TbsGuardTest, AllNumericTableIsRejectedWithStatus) {
  data::Schema schema(
      {data::Attribute::Numerical("x"), data::Attribute::Numerical("y")});
  data::Table table(schema);
  Rng rng(55);
  for (int i = 0; i < 64; ++i)
    table.AppendRecord({rng.Gaussian(), rng.Gaussian()});
  GanOptions opts = TbsOptions();
  TableSynthesizer synth(opts, transform::TransformOptions{});
  const Status health = synth.Fit(table);
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(health.ToString().find("one-hot categorical"),
            std::string::npos)
      << health.ToString();
}

TEST(TbsGuardTest, ConditionalPlusTbsAborts) {
  GanOptions opts = TbsOptions();
  opts.conditional = true;
  EXPECT_DEATH(TableSynthesizer(opts, transform::TransformOptions{}),
               "DAISY_CHECK");
}

// kCTrain conditions on the label just as `conditional` does, so the
// same rule refuses it at construction — never a fit whose saved model
// Load then refuses.
TEST(TbsGuardTest, CTrainPlusTbsAborts) {
  GanOptions opts = TbsOptions();
  opts.algo = TrainAlgo::kCTrain;
  EXPECT_DEATH(TableSynthesizer(opts, transform::TransformOptions{}),
               "DAISY_CHECK");
}

// ---------------------------------------------------------------------------
// The acceptance claim: on a 1:1000 Zipf table, training-by-sampling
// strictly improves BOTH heavy-tail metrics over uniform sampling, at
// identical model capacity, seeds and iteration budget.

struct TailMetrics {
  double rare_recall = 0.0;
  double per_category_kl = 0.0;
};

TailMetrics TrainAndScore(SamplerKind kind) {
  Rng data_rng(60);
  data::SkewedTableOptions sopts;
  sopts.num_records = 2000;
  sopts.label_imbalance = 999;  // the 1:1000 regime of the sweep
  const data::Table table = data::MakeSkewedTable(sopts, &data_rng);

  GanOptions opts;
  opts.algo = TrainAlgo::kVTrain;
  opts.sampler = kind;
  // Budget note: at ~300 iterations tbs has already won on recall but
  // its marginals are still mid-flight (the generator has not fully
  // learned to obey the cond vector, so generation-time raw-frequency
  // conditions don't yet undo the log-flattened training
  // distribution); from ~600 iterations on it wins both metrics. 800
  // buys margin while keeping the test a few seconds.
  opts.iterations = 800;
  opts.batch_size = 32;
  opts.kl_weight = 0.0;  // no marginal warm-up: isolate the sampler
  opts.seed = 61;
  TableSynthesizer synth(opts, transform::TransformOptions{});
  const Status health = synth.Fit(table);
  EXPECT_TRUE(health.ok()) << health.ToString();

  Rng gen_rng(62);
  const data::Table fake = synth.Generate(4000, &gen_rng);
  TailMetrics m;
  m.rare_recall = eval::RareModeRecall(table, fake).recall;
  m.per_category_kl = eval::PerCategoryKl(table, fake);
  return m;
}

TEST(TbsVsUniformTest, TbsStrictlyImprovesBothTailMetrics) {
  const TailMetrics uniform = TrainAndScore(SamplerKind::kUniform);
  const TailMetrics tbs = TrainAndScore(SamplerKind::kTrainingBySampling);
  std::printf("rare_mode_recall: uniform=%.4f tbs=%.4f\n"
              "per_category_kl:  uniform=%.4f tbs=%.4f\n",
              uniform.rare_recall, tbs.rare_recall,
              uniform.per_category_kl, tbs.per_category_kl);
  EXPECT_GT(tbs.rare_recall, uniform.rare_recall)
      << "tbs=" << tbs.rare_recall << " uniform=" << uniform.rare_recall;
  EXPECT_LT(tbs.per_category_kl, uniform.per_category_kl)
      << "tbs=" << tbs.per_category_kl
      << " uniform=" << uniform.per_category_kl;
}

}  // namespace
}  // namespace daisy::synth
