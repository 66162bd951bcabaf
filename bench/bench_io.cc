// Out-of-core I/O bench (google-benchmark): what the paged pipeline
// costs relative to the in-memory path, and what the chunked-shuffle
// sampler buys back. Axes:
//
//   convert    — CSV -> .dcol conversion throughput (rows/sec)
//   scan       — sequential ScanColumn streaming (bytes/sec)
//   epoch      — one epoch of batch-256 minibatch gathers through a
//                TrainDataSource: in-memory (budget 0) vs paged at
//                page budgets {1, 4, 64}, with the uniform sampler
//                (random page faults every batch) and the
//                chunked-shuffle sampler (page-local batches)
//   csv rows   — CsvRows, the one CSV row encoder behind WriteCsv,
//                the CLI and daisy_serve: a decoded 512-row chunk (the
//                serve engine's chunk; full-precision numbers) and 20k
//                Adult-sim rows
//
// The determinism contract means every variant gathers bitwise-equal
// sample batches — only time and cache-miss counts may differ. The
// headline number to watch: paged + chunked at a small budget should
// stay within ~1.3x of the in-memory epoch. EXPERIMENTS.md describes
// exporting the sweep as BENCH_io.json. Row count defaults to 100k;
// override with DAISY_BENCH_IO_ROWS.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/columnar.h"
#include "data/csv.h"
#include "data/generators/realistic.h"
#include "data/generators/sdata.h"
#include "synth/sampler.h"
#include "synth/train_source.h"
#include "transform/record_transformer.h"

namespace daisy::bench {
namespace {

namespace fs = std::filesystem;

size_t BenchRows() {
  if (const char* env = std::getenv("DAISY_BENCH_IO_ROWS"))
    return static_cast<size_t>(std::strtoull(env, nullptr, 10));
  return 100000;
}

constexpr size_t kPageRows = 4096;
constexpr size_t kBatch = 256;

std::string BenchDir() {
  const fs::path dir = fs::temp_directory_path() / "daisy_bench_io";
  fs::create_directories(dir);
  return dir.string();
}

const data::Table& BigTable() {
  static const data::Table* table = [] {
    Rng rng(0x10);
    data::SDataCatOptions opts;
    opts.num_records = BenchRows();
    return new data::Table(data::MakeSDataCat(opts, &rng));
  }();
  return *table;
}

const std::string& CsvPath() {
  static const std::string* path = [] {
    auto* p = new std::string(BenchDir() + "/table.csv");
    const Status st = data::WriteCsv(BigTable(), *p);
    if (!st.ok()) std::abort();
    return p;
  }();
  return *path;
}

const std::string& DcolPath() {
  static const std::string* path = [] {
    auto* p = new std::string(BenchDir() + "/table.dcol");
    const Status st = data::WriteColumnar(BigTable(), *p, kPageRows);
    if (!st.ok()) std::abort();
    return p;
  }();
  return *path;
}

// Simple normalization + one-hot keeps the transformer setup cheap so
// the timed region is dominated by gather/encode I/O, not GMM fitting.
const transform::RecordTransformer& Transformer() {
  static const transform::RecordTransformer* t = [] {
    transform::TransformOptions topts;
    topts.numerical = transform::NumericalNormalization::kSimple;
    Rng rng(0x11);
    return new transform::RecordTransformer(
        transform::RecordTransformer::Fit(BigTable(), topts, &rng));
  }();
  return *t;
}

void BM_ConvertCsvToColumnar(benchmark::State& state) {
  const std::string& csv = CsvPath();
  const std::string out = BenchDir() + "/convert_out.dcol";
  const std::string label = BigTable().schema().label_attribute().name;
  for (auto _ : state) {
    const Status st = data::ConvertCsvToColumnar(csv, out, label, kPageRows);
    if (!st.ok()) state.SkipWithError(st.message().c_str());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(BigTable().num_records()));
}
BENCHMARK(BM_ConvertCsvToColumnar)->Unit(benchmark::kMillisecond);

void BM_ScanColumn(benchmark::State& state) {
  data::PagedTable::Options popts;
  popts.verify = false;
  auto paged = data::PagedTable::Open(DcolPath(), popts).take();
  std::vector<double> out(paged->num_records());
  for (auto _ : state) {
    for (size_t col = 0; col < paged->num_attributes(); ++col) {
      const Status st =
          paged->ScanColumn(col, 0, paged->num_records(), out.data());
      if (!st.ok()) state.SkipWithError(st.message().c_str());
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(paged->num_records() *
                                               paged->num_attributes() *
                                               sizeof(double)));
}
BENCHMARK(BM_ScanColumn)->Unit(benchmark::kMillisecond);

// One epoch of minibatch gathers. budget == 0 is the in-memory
// baseline (whole table transformed up front, batches sliced from the
// encoded matrix); budget > 0 faults raw pages through the cache and
// encodes per batch. chunked == 1 uses the page-local shuffle order.
void EpochGather(benchmark::State& state, size_t budget, bool chunked) {
  const data::Table& table = BigTable();
  const transform::RecordTransformer& transformer = Transformer();

  std::unique_ptr<data::PagedTable> paged;
  std::unique_ptr<synth::TrainDataSource> source;
  if (budget == 0) {
    source = std::make_unique<synth::InMemoryTrainSource>(table, &transformer);
  } else {
    data::PagedTable::Options popts;
    popts.page_budget = budget;
    popts.verify = false;
    paged = data::PagedTable::Open(DcolPath(), popts).take();
    source = std::make_unique<synth::PagedTrainSource>(paged.get(),
                                                       &transformer);
  }

  const size_t n = table.num_records();
  const size_t batches = n / kBatch;
  Rng rng(0x12);
  synth::RandomSampler uniform(n);
  synth::ChunkedShuffleSampler shuffle(n, kPageRows, 0x13);
  for (auto _ : state) {
    for (size_t b = 0; b < batches; ++b) {
      const std::vector<size_t> rows = chunked
                                           ? shuffle.SampleBatch(kBatch)
                                           : uniform.SampleBatch(kBatch, &rng);
      const auto samples = source->GatherSamples(rows);
      benchmark::DoNotOptimize(samples.value().data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batches * kBatch));
  if (paged != nullptr) {
    state.counters["page_misses"] =
        static_cast<double>(paged->cache_stats().misses);
    state.counters["page_hits"] =
        static_cast<double>(paged->cache_stats().hits);
  }
}

void BM_EpochGather(benchmark::State& state) {
  EpochGather(state, static_cast<size_t>(state.range(0)),
              state.range(1) != 0);
}
BENCHMARK(BM_EpochGather)
    ->ArgNames({"budget", "chunked"})
    ->Args({0, 0})   // in-memory baseline
    ->Args({0, 1})
    ->Args({1, 1})   // minimum budget: only viable with page-local order
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Unit(benchmark::kMillisecond);

// End-to-end Fit (transformer fitting + ~1 epoch of adversarial
// iterations): the number the out-of-core pipeline is judged by.
// budget == 0 is the in-memory path. The per-batch re-encode the
// paged path pays is amortized against the whole-table Transform the
// in-memory path pays up front, so the two should land close.
void BM_TrainEndToEnd(benchmark::State& state) {
  const size_t budget = static_cast<size_t>(state.range(0));
  const size_t iterations = 200;  // ~1 epoch at 100k rows, batch 256
  for (auto _ : state) {
    synth::GanOptions opts;
    opts.iterations = iterations;
    opts.batch_size = kBatch;
    opts.snapshots = 1;
    opts.seed = 0x14;
    opts.sampler = synth::SamplerKind::kChunkedShuffle;
    opts.shuffle_chunk_rows = kPageRows;
    transform::TransformOptions topts;
    topts.numerical = transform::NumericalNormalization::kSimple;
    synth::TableSynthesizer synth(opts, topts);
    if (budget == 0) {
      if (!synth.Fit(BigTable()).ok()) state.SkipWithError("fit failed");
    } else {
      data::PagedTable::Options popts;
      popts.page_budget = budget;
      popts.verify = false;
      auto paged = data::PagedTable::Open(DcolPath(), popts).take();
      if (!synth.Fit(*paged).ok()) state.SkipWithError("fit failed");
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(iterations * kBatch));
}
BENCHMARK(BM_TrainEndToEnd)
    ->ArgNames({"budget"})
    ->Arg(0)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// CsvRows of one table. decoded == 1: a 512-row chunk decoded from
// random generator-shaped samples by a GMM transformer, so numbers
// carry full precision as they do in a release; decoded == 0: Adult-sim
// rows as generated.
void BM_CsvRows(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Rng rng(0x15);
  data::Table table = data::MakeAdultSim(rows, &rng);
  if (state.range(1) != 0) {
    const data::Table fit_rows = data::MakeAdultSim(2000, &rng);
    const auto transformer = transform::RecordTransformer::Fit(
        fit_rows, transform::TransformOptions(), &rng);
    table = transformer.InverseTransform(
        Matrix::Randn(rows, transformer.sample_dim(), &rng));
  }
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string csv = data::CsvRows(table);
    benchmark::DoNotOptimize(csv.data());
    bytes = csv.size();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_CsvRows)
    ->ArgNames({"rows", "decoded"})
    ->Args({512, 1})
    ->Args({20000, 0})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace daisy::bench

BENCHMARK_MAIN();
