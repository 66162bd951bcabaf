// The headline invariant of the out-of-core pipeline: a GAN fitted
// from a paged .dcol table is byte-identical to one fitted from the
// equivalent in-memory table — at any page budget, thread count and
// sampler kind. Also covers: streaming transformer fits
// bitwise-equal to in-memory fits, the chunked-shuffle sampler's
// epoch/determinism/fast-forward contract, label-aware conditional
// training over a paged table, and checkpoint resume of a paged +
// chunked-sampler run.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "data/columnar.h"
#include "data/generators/sdata.h"
#include "obs/metrics.h"
#include "synth/sampler.h"
#include "synth/synthesizer.h"
#include "transform/record_transformer.h"

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

data::Table SmallTable() {
  Rng rng(7);
  data::SDataCatOptions opts;
  opts.num_records = 200;
  return data::MakeSDataCat(opts, &rng);
}

// Writes `table` as a multi-group .dcol and opens it paged.
std::unique_ptr<data::PagedTable> PagedCopy(const data::Table& table,
                                            const std::string& dir,
                                            size_t page_rows,
                                            size_t page_budget) {
  const std::string path = dir + "/table.dcol";
  if (!fs::exists(path)) {
    const Status st = data::WriteColumnar(table, path, page_rows);
    if (!st.ok()) ADD_FAILURE() << st.message();
  }
  data::PagedTable::Options popts;
  popts.page_budget = page_budget;
  auto opened = data::PagedTable::Open(path, popts);
  if (!opened.ok()) {
    ADD_FAILURE() << opened.status().message();
    return nullptr;
  }
  return opened.take();
}

GanOptions BaseOptions(size_t threads) {
  GanOptions opts;
  opts.algo = TrainAlgo::kVTrain;
  opts.iterations = 24;
  opts.batch_size = 16;
  opts.snapshots = 4;
  opts.seed = 33;
  opts.num_threads = threads;
  return opts;
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
// ChunkedShuffleSampler unit contract.

TEST(ChunkedShuffleSamplerTest, EveryEpochIsAPermutation) {
  ChunkedShuffleSampler sampler(103, 16, 9);
  EXPECT_EQ(sampler.num_chunks(), 7u);  // ceil(103 / 16)
  // Draw three epochs in batches that do NOT align with epoch
  // boundaries; every window of 103 draws must cover each index once.
  std::vector<size_t> stream;
  while (stream.size() < 3 * 103) {
    const auto batch = sampler.SampleBatch(19);
    stream.insert(stream.end(), batch.begin(), batch.end());
  }
  for (size_t e = 0; e < 3; ++e) {
    std::vector<bool> seen(103, false);
    for (size_t i = 0; i < 103; ++i) {
      const size_t idx = stream[e * 103 + i];
      ASSERT_LT(idx, 103u);
      EXPECT_FALSE(seen[idx]) << "epoch " << e << " repeated " << idx;
      seen[idx] = true;
    }
  }
  // Different epochs visit in different orders.
  EXPECT_NE(std::vector<size_t>(stream.begin(), stream.begin() + 103),
            std::vector<size_t>(stream.begin() + 103,
                                stream.begin() + 206));
}

TEST(ChunkedShuffleSamplerTest, DrawsStayWithinOneChunkAtATime) {
  // Paging locality: consecutive draws exhaust one chunk (one page
  // window) before touching the next.
  ChunkedShuffleSampler sampler(96, 16, 5);
  for (size_t c = 0; c < 6; ++c) {
    const auto batch = sampler.SampleBatch(16);
    const size_t chunk = batch[0] / 16;
    for (size_t idx : batch) EXPECT_EQ(idx / 16, chunk);
  }
}

TEST(ChunkedShuffleSamplerTest, SameSeedSameStream) {
  ChunkedShuffleSampler a(57, 8, 4);
  ChunkedShuffleSampler b(57, 8, 4);
  EXPECT_EQ(a.SampleBatch(140), b.SampleBatch(140));
  ChunkedShuffleSampler c(57, 8, 5);
  ChunkedShuffleSampler d(57, 8, 4);
  EXPECT_NE(c.SampleBatch(140), d.SampleBatch(140));
}

TEST(ChunkedShuffleSamplerTest, ZeroChunkRowsMeansWholeTable) {
  ChunkedShuffleSampler sampler(20, 0, 1);
  EXPECT_EQ(sampler.num_chunks(), 1u);
  std::vector<bool> seen(20, false);
  for (size_t idx : sampler.SampleBatch(20)) seen[idx] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(ChunkedShuffleSamplerTest, AdvanceRowsEqualsDrawing) {
  // The resume fast-forward: skipping k rows must land exactly where
  // drawing k rows would have — including mid-chunk and multi-epoch
  // skips.
  for (uint64_t k : {0ull, 5ull, 8ull, 23ull, 57ull, 60ull, 130ull, 171ull}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ChunkedShuffleSampler drawn(57, 8, 4);
    ChunkedShuffleSampler skipped(57, 8, 4);
    if (k > 0) drawn.SampleBatch(static_cast<size_t>(k));
    skipped.AdvanceRows(k);
    EXPECT_EQ(drawn.epoch(), skipped.epoch());
    EXPECT_EQ(drawn.SampleBatch(40), skipped.SampleBatch(40));
  }
}

// ---------------------------------------------------------------------------
// Streaming statistics equivalence.

TEST(PagedTrainTest, StreamingTransformerFitIsBitwise) {
  const data::Table table = SmallTable();
  const std::string dir = FreshDir("paged_transform_fit");
  auto paged = PagedCopy(table, dir, 37, 2);
  ASSERT_NE(paged, nullptr);

  for (size_t threads : {1u, 2u, 7u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::SetNumThreads(threads);
    transform::TransformOptions topts;  // one-hot + GMM (the hard case)
    Rng rng_mem(21);
    Rng rng_paged(21);
    const auto mem = transform::RecordTransformer::Fit(table, topts, &rng_mem);
    const auto str =
        transform::RecordTransformer::FitStreaming(*paged, topts, &rng_paged);
    // Both fits must consume the rng stream identically.
    EXPECT_EQ(rng_mem.Next(), rng_paged.Next());

    ASSERT_EQ(mem.segments().size(), str.segments().size());
    ASSERT_EQ(mem.sample_dim(), str.sample_dim());
    for (size_t s = 0; s < mem.segments().size(); ++s) {
      const auto& a = mem.segments()[s];
      const auto& b = str.segments()[s];
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.offset, b.offset);
      EXPECT_EQ(a.width, b.width);
      EXPECT_EQ(a.v_min, b.v_min);
      EXPECT_EQ(a.v_max, b.v_max);
      ASSERT_EQ(a.gmm.num_components(), b.gmm.num_components());
      for (size_t c = 0; c < a.gmm.num_components(); ++c) {
        EXPECT_EQ(a.gmm.mean(c), b.gmm.mean(c)) << "segment " << s;
        EXPECT_EQ(a.gmm.stddev(c), b.gmm.stddev(c)) << "segment " << s;
        EXPECT_EQ(a.gmm.weight(c), b.gmm.weight(c)) << "segment " << s;
      }
    }

    const Matrix enc_mem = mem.Transform(table);
    const Matrix enc_str = str.Transform(table);
    ASSERT_EQ(enc_mem.rows(), enc_str.rows());
    ASSERT_EQ(enc_mem.cols(), enc_str.cols());
    for (size_t i = 0; i < enc_mem.rows(); ++i)
      for (size_t j = 0; j < enc_mem.cols(); ++j)
        ASSERT_EQ(enc_mem(i, j), enc_str(i, j));
  }
  par::SetNumThreads(0);
}

// ---------------------------------------------------------------------------
// End-to-end: Fit over a PagedTable == Fit over the in-memory Table.

TEST(PagedTrainTest, PagedFitIsBitwiseAtEveryBudgetAndThreadCount) {
  const data::Table table = SmallTable();
  const std::string dir = FreshDir("paged_fit_bitwise");

  for (SamplerKind kind : {SamplerKind::kUniform, SamplerKind::kChunkedShuffle}) {
    const std::string kname =
        kind == SamplerKind::kUniform ? "uniform" : "chunked";
    for (size_t threads : {1u, 2u, 7u}) {
      SCOPED_TRACE("sampler=" + kname + " threads=" + std::to_string(threads));
      GanOptions opts = BaseOptions(threads);
      opts.sampler = kind;
      opts.shuffle_chunk_rows = 37;  // align chunks with page groups

      TableSynthesizer mem(opts, {});
      ASSERT_TRUE(mem.Fit(table).ok());
      const std::string model_mem = dir + "/mem.daisy";
      ASSERT_TRUE(mem.Save(model_mem).ok());
      const std::string bytes_mem = FileBytes(model_mem);
      Rng gen_mem(77);
      const data::Table fake_mem = mem.Generate(32, &gen_mem);

      for (size_t budget : {1u, 4u, 1000u}) {
        SCOPED_TRACE("budget=" + std::to_string(budget));
        auto paged = PagedCopy(table, dir, 37, budget);
        ASSERT_NE(paged, nullptr);
        TableSynthesizer synth(opts, {});
        ASSERT_TRUE(synth.Fit(*paged).ok());
        EXPECT_LE(paged->resident_pages(), budget);
        const std::string model = dir + "/paged.daisy";
        ASSERT_TRUE(synth.Save(model).ok());
        EXPECT_EQ(bytes_mem, FileBytes(model))
            << "paged model differs from in-memory model";
        Rng gen(77);
        ExpectSameTable(fake_mem, synth.Generate(32, &gen));
      }
    }
  }
}

TEST(PagedTrainTest, ConditionalTrainingWorksOverPagedTables) {
  // ctrain exercises the label-aware path: labels come from the paged
  // label column and conditional batches gather by label.
  const data::Table table = SmallTable();
  const std::string dir = FreshDir("paged_ctrain");
  auto paged = PagedCopy(table, dir, 37, 3);
  ASSERT_NE(paged, nullptr);

  GanOptions opts = BaseOptions(2);
  opts.algo = TrainAlgo::kCTrain;
  TableSynthesizer mem(opts, {});
  ASSERT_TRUE(mem.Fit(table).ok());
  TableSynthesizer str(opts, {});
  ASSERT_TRUE(str.Fit(*paged).ok());

  const std::string model_mem = dir + "/mem.daisy";
  const std::string model_str = dir + "/paged.daisy";
  ASSERT_TRUE(mem.Save(model_mem).ok());
  ASSERT_TRUE(str.Save(model_str).ok());
  EXPECT_EQ(FileBytes(model_mem), FileBytes(model_str));
}

TEST(PagedTrainTest, PagedChunkedResumeIsBitwise) {
  // Crash/resume over a paged table with the chunked sampler: the
  // resume fast-forward (ChunkedShuffleSampler::AdvanceRows) must land
  // the index stream exactly where the uninterrupted run was.
  const data::Table table = SmallTable();
  const std::string dir = FreshDir("paged_resume");
  auto paged = PagedCopy(table, dir, 37, 2);
  ASSERT_NE(paged, nullptr);

  GanOptions opts_a = BaseOptions(2);
  opts_a.sampler = SamplerKind::kChunkedShuffle;
  opts_a.shuffle_chunk_rows = 37;
  opts_a.checkpoint_every = 6;
  opts_a.checkpoint_dir = FreshDir("paged_resume_a");
  obs::MemorySink sink_a;
  TableSynthesizer synth_a(opts_a, {});
  ASSERT_TRUE(synth_a.Fit(*paged, &sink_a).ok());
  const std::string model_a = opts_a.checkpoint_dir + "/model_a.daisy";
  ASSERT_TRUE(synth_a.Save(model_a).ok());

  GanOptions opts_b = opts_a;
  opts_b.checkpoint_dir = FreshDir("paged_resume_b");
  opts_b.resume = true;
  opts_b.max_iters_per_run = 7;
  obs::MemorySink sink_b;
  std::string model_b;
  int segments = 0;
  for (; segments < 16; ++segments) {
    TableSynthesizer synth_b(opts_b, {});
    ASSERT_TRUE(synth_b.Fit(*paged, &sink_b).ok());
    if (!synth_b.train_result().paused) {
      model_b = opts_b.checkpoint_dir + "/model_b.daisy";
      ASSERT_TRUE(synth_b.Save(model_b).ok());
      break;
    }
  }
  ASSERT_FALSE(model_b.empty()) << "run never completed";
  EXPECT_GE(segments, 2) << "pause knob never engaged";
  EXPECT_EQ(FileBytes(model_a), FileBytes(model_b));
}

}  // namespace
}  // namespace daisy::synth
