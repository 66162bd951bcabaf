// Substrate micro-benchmarks (google-benchmark): the building blocks
// whose cost dominates the experiment harness — matrix multiplication,
// one Linear layer's forward/backward, GMM fitting (in memory and over
// a paged table), page checksums, record transformation, LSTM stepping,
// decision-tree fitting, and AQP query execution.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>

#include "core/durable.h"
#include "core/kernels/kernels.h"
#include "core/matrix.h"
#include "core/parallel.h"
#include "data/columnar.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "data/generators/realistic.h"
#include "eval/aqp.h"
#include "eval/decision_tree.h"
#include "nn/lstm.h"
#include "stats/gmm.h"
#include "synth/dp_engine.h"
#include "synth/lstm_nets.h"
#include "synth/mlp_nets.h"
#include "transform/record_transformer.h"

namespace daisy {
namespace {

void BM_MatMul(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(1);
  Matrix a = Matrix::Randn(n, n, &rng);
  Matrix b = Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// GEMM size x thread-count sweeps: args are {n, threads}. The thread
// count is set through par::SetNumThreads (same mechanism as the
// DAISY_THREADS env var) and restored to the default afterwards.
// Output is bit-identical across the threads axis; only time changes.
void BM_GemmThreads(benchmark::State& state) {
  const size_t n = state.range(0);
  const size_t threads = state.range(1);
  Rng rng(1);
  Matrix a = Matrix::Randn(n, n, &rng);
  Matrix b = Matrix::Randn(n, n, &rng);
  par::SetNumThreads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  par::SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmThreads)
    ->ArgsProduct({{128, 256, 512}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_GemmTransposeAThreads(benchmark::State& state) {
  const size_t n = state.range(0);
  const size_t threads = state.range(1);
  Rng rng(1);
  Matrix a = Matrix::Randn(n, n, &rng);
  Matrix b = Matrix::Randn(n, n, &rng);
  par::SetNumThreads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.TransposeMatMul(b));
  }
  par::SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmTransposeAThreads)
    ->ArgsProduct({{256, 512}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_GemmTransposeBThreads(benchmark::State& state) {
  const size_t n = state.range(0);
  const size_t threads = state.range(1);
  Rng rng(1);
  Matrix a = Matrix::Randn(n, n, &rng);
  Matrix b = Matrix::Randn(n, n, &rng);
  par::SetNumThreads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMulTranspose(b));
  }
  par::SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmTransposeBThreads)
    ->ArgsProduct({{256, 512}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

// One Linear forward + backward (weight/bias gradients and the input
// gradient) at the generator's shapes: 96 -> 1/5/16 are attribute
// output heads, 96 -> 96 and 128 -> 256 hidden layers. Args: {batch,
// in, out}; one thread.
void BM_LinearFwdBwd(benchmark::State& state) {
  const size_t batch = state.range(0), in = state.range(1),
               out = state.range(2);
  Rng rng(3);
  nn::Linear layer(in, out, &rng);
  const Matrix x = Matrix::Randn(batch, in, &rng);
  const Matrix g = Matrix::Randn(batch, out, &rng);
  par::SetNumThreads(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.Forward(x, true));
    benchmark::DoNotOptimize(layer.Backward(g));
  }
  par::SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LinearFwdBwd)
    ->Args({64, 96, 1})
    ->Args({64, 96, 5})
    ->Args({64, 96, 16})
    ->Args({64, 96, 96})
    ->Args({64, 128, 256})
    ->ArgNames({"batch", "in", "out"});

// Kernel x ISA sweeps: args are {n, isa} with isa 0 = scalar, 1 =
// avx2. The ISA is forced through kern::SetIsaForTesting (the same
// table the DAISY_SIMD env var selects) and restored afterwards; on a
// machine without AVX2 the avx2 rows are skipped with a message.
// Output is bit-identical across the ISA axis; only time changes.
bool ForceIsaOrSkip(benchmark::State& state, int64_t isa_arg) {
  const auto isa =
      isa_arg == 1 ? kern::Isa::kAvx2 : kern::Isa::kScalar;
  if (!kern::IsaAvailable(isa)) {
    state.SkipWithError("AVX2 kernel table unavailable");
    return false;
  }
  kern::SetIsaForTesting(isa);
  return true;
}

void BM_KernelGemmIsa(benchmark::State& state) {
  const size_t n = state.range(0);
  if (!ForceIsaOrSkip(state, state.range(1))) return;
  Rng rng(1);
  Matrix a = Matrix::Randn(n, n, &rng);
  Matrix b = Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  kern::ResetIsaForTesting();
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_KernelGemmIsa)
    ->ArgsProduct({{128, 256}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_KernelTanhIsa(benchmark::State& state) {
  const size_t n = state.range(0);
  if (!ForceIsaOrSkip(state, state.range(1))) return;
  Rng rng(1);
  Matrix x = Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::TanhMat(x));
  }
  kern::ResetIsaForTesting();
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_KernelTanhIsa)->ArgsProduct({{256, 512}, {0, 1}});

void BM_KernelSigmoidIsa(benchmark::State& state) {
  const size_t n = state.range(0);
  if (!ForceIsaOrSkip(state, state.range(1))) return;
  Rng rng(1);
  Matrix x = Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::SigmoidMat(x));
  }
  kern::ResetIsaForTesting();
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_KernelSigmoidIsa)->ArgsProduct({{256, 512}, {0, 1}});

void BM_KernelLeakyReluIsa(benchmark::State& state) {
  const size_t n = state.range(0);
  if (!ForceIsaOrSkip(state, state.range(1))) return;
  Rng rng(1);
  Matrix x = Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::LeakyReluMat(x, 0.2));
  }
  kern::ResetIsaForTesting();
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_KernelLeakyReluIsa)->ArgsProduct({{256, 512}, {0, 1}});

void BM_KernelSoftmaxIsa(benchmark::State& state) {
  const size_t cols = state.range(0);
  if (!ForceIsaOrSkip(state, state.range(1))) return;
  Rng rng(1);
  Matrix x = Matrix::Randn(4096, cols, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::SoftmaxRows(x));
  }
  kern::ResetIsaForTesting();
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_KernelSoftmaxIsa)->ArgsProduct({{16, 128}, {0, 1}});

void BM_KernelRowNormIsa(benchmark::State& state) {
  const size_t n = state.range(0);
  if (!ForceIsaOrSkip(state, state.range(1))) return;
  Rng rng(1);
  Matrix x = Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    Matrix scales = x.RowSquaredNorms();
    Matrix y = x;
    benchmark::DoNotOptimize(y.ScaleRows(scales));
  }
  kern::ResetIsaForTesting();
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_KernelRowNormIsa)->ArgsProduct({{256, 512}, {0, 1}});

void BM_KernelArgmaxIsa(benchmark::State& state) {
  const size_t cols = state.range(0);
  if (!ForceIsaOrSkip(state, state.range(1))) return;
  Rng rng(1);
  Matrix x = Matrix::Randn(4096, cols, &rng);
  for (auto _ : state) {
    size_t acc = 0;
    for (size_t r = 0; r < x.rows(); ++r) acc += x.ArgMaxRow(r);
    benchmark::DoNotOptimize(acc);
  }
  kern::ResetIsaForTesting();
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_KernelArgmaxIsa)->ArgsProduct({{16, 128}, {0, 1}});

void BM_GmmFit(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> values(state.range(0));
  for (auto& v : values)
    v = rng.Gaussian(rng.Uniform() < 0.5 ? -3.0 : 3.0, 1.0);
  for (auto _ : state) {
    Rng fit_rng(3);
    stats::Gmm1d::Options opts;
    opts.components = 5;
    opts.max_iters = 30;
    benchmark::DoNotOptimize(stats::Gmm1d::Fit(values, opts, &fit_rng));
  }
}
BENCHMARK(BM_GmmFit)->Arg(1000)->Arg(10000);

// The out-of-core GMM fit: one 50k-row skewed numeric column in a
// paged .dcol (4096-row pages, page budget 16), fitted through
// RecordTransformer::FitStreaming with the default EM options.
void BM_GmmFitStreaming(benchmark::State& state) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "daisy_bench_micro";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "gmm_column.dcol").string();
  Rng rng(7);
  data::Table table(data::Schema({data::Attribute::Numerical("x")}));
  for (int64_t i = 0; i < state.range(0); ++i)
    table.AppendRecord({rng.Uniform() < 0.7
                            ? 10.0 * std::exp(rng.Gaussian(0.0, 0.6))
                            : rng.Gaussian(60.0, 5.0)});
  if (!data::WriteColumnar(table, path, 4096).ok()) std::abort();
  data::PagedTable::Options popts;
  popts.page_budget = 16;
  auto paged = data::PagedTable::Open(path, popts);
  if (!paged.ok()) std::abort();
  for (auto _ : state) {
    Rng fit_rng(3);
    benchmark::DoNotOptimize(transform::RecordTransformer::FitStreaming(
        *paged.value(), transform::TransformOptions{}, &fit_rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  std::filesystem::remove(path);
}
BENCHMARK(BM_GmmFitStreaming)->Arg(50000)->Unit(benchmark::kMillisecond);

// The CRC32 every .dcol page load, verify pass and convert runs.
void BM_Crc32(benchmark::State& state) {
  std::vector<unsigned char> page(state.range(0));
  for (size_t i = 0; i < page.size(); ++i)
    page[i] = static_cast<unsigned char>(i * 131u + 7u);
  for (auto _ : state)
    benchmark::DoNotOptimize(Crc32(page.data(), page.size()));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(32768);

void BM_TransformTable(benchmark::State& state) {
  Rng rng(4);
  data::Table t = data::MakeAdultSim(state.range(0), &rng);
  transform::TransformOptions opts;
  auto tf = transform::RecordTransformer::Fit(t, opts, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tf.Transform(t));
  }
  state.SetItemsProcessed(state.iterations() * t.num_records());
}
BENCHMARK(BM_TransformTable)->Arg(1000)->Arg(5000);

// One LSTM cell step, training (StepForward, fills the BPTT cache) or
// inference (StepInference). Args: {batch, infer}.
void BM_LstmStep(benchmark::State& state) {
  Rng rng(5);
  const size_t batch = state.range(0);
  const bool infer = state.range(1) != 0;
  nn::LstmCell cell(32, 64, &rng);
  Matrix x = Matrix::Randn(batch, 32, &rng);
  const nn::LstmState s = cell.InitialState(batch);
  for (auto _ : state) {
    if (infer) {
      benchmark::DoNotOptimize(cell.StepInference(x, s));
    } else {
      cell.ClearCache();
      benchmark::DoNotOptimize(cell.StepForward(x, s));
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmStep)
    ->ArgsProduct({{16, 64, 256}, {0, 1}})
    ->ArgNames({"batch", "infer"});

// LSTM generator inference over one generation chunk at the shapes of
// the default LSTM design point: 32 noise, 64 hidden, 32 feature, and
// one timestep per head unit of the Adult-sim transform (GMM numerics
// take two).
void BM_LstmGeneratorInfer(benchmark::State& state) {
  Rng rng(11);
  const size_t batch = state.range(0);
  const data::Table t = data::MakeAdultSim(1000, &rng);
  const auto tf =
      transform::RecordTransformer::Fit(t, transform::TransformOptions{}, &rng);
  const synth::LstmGenerator g(32, 0, 64, 32, tf.segments(), &rng);
  const Matrix z = Matrix::Randn(batch, 32, &rng);
  for (auto _ : state) benchmark::DoNotOptimize(g.InferenceForward(z, Matrix()));
  state.counters["timesteps"] = static_cast<double>(g.num_timesteps());
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmGeneratorInfer)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_DecisionTreeFit(benchmark::State& state) {
  Rng rng(6);
  data::Table t = data::MakeAdultSim(state.range(0), &rng);
  Matrix x = t.FeatureMatrix();
  auto y = t.Labels();
  for (auto _ : state) {
    Rng fit_rng(7);
    eval::DecisionTree tree(eval::DecisionTreeOptions{.max_depth = 10});
    tree.Fit(x, y, 2, &fit_rng);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * t.num_records());
}
BENCHMARK(BM_DecisionTreeFit)->Arg(1000)->Arg(5000);

// DP-SGD discriminator step, engine x batch x threads. Args are
// {engine, batch, threads}: engine 0 = per-sample reference, 1 =
// vectorized. The discriminator is the default MLP critic (96x96,
// Wasserstein) on a 32-dim sample. Per step the reference pays
// 2*batch one-row backward passes; the vectorized engine pays
// O(layers) batched GEMMs, so its advantage grows with the batch size
// and is independent of the thread count (algorithmic, not parallel,
// speedup). Both produce the same mechanism output.
void BM_DpStep(benchmark::State& state) {
  const synth::DpEngineKind engine_kind = state.range(0) == 0
                                              ? synth::DpEngineKind::kPerSample
                                              : synth::DpEngineKind::kVectorized;
  const size_t batch = state.range(1);
  const size_t threads = state.range(2);
  const size_t dim = 32;
  Rng rng(9);
  synth::MlpDiscriminator d(dim, 0, {96, 96}, false, &rng);
  synth::DpSgdEngine engine(&d, 1.0, 1.0, engine_kind);
  Matrix real = Matrix::Randn(batch, dim, &rng);
  Matrix fake = Matrix::Randn(batch, dim, &rng);
  Rng noise_rng(10);
  par::SetNumThreads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Step(real, Matrix(), fake, Matrix(),
                                         /*wasserstein=*/true, &noise_rng));
  }
  par::SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DpStep)
    ->ArgsProduct({{0, 1}, {16, 64, 256}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_AqpQuery(benchmark::State& state) {
  Rng rng(8);
  data::Table t = data::MakeBingSim(state.range(0), &rng);
  eval::AqpWorkloadOptions wopts;
  wopts.num_queries = 1;
  const auto workload = eval::GenerateAqpWorkload(t, wopts, &rng).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::ExecuteAqpQuery(t, workload[0]));
  }
  state.SetItemsProcessed(state.iterations() * t.num_records());
}
BENCHMARK(BM_AqpQuery)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace daisy

BENCHMARK_MAIN();
