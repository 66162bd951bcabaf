// Golden pin of trained output. Fnv1a64 digests of the bytes that a
// short Fit leaves behind — the SaveToStream model payload and the
// InferenceSamples of a fixed latent batch — for the four design points
// e2ebench's design_sweep runs (MLP VTrain, LSTM WTrain, MLP CTrain, MLP
// DPTrain on the vectorized engine), plus a digest of one Linear
// forward/backward pass at head and hidden widths. Every value is
// checked under the scalar and the AVX2 kernel table at 1 and 3
// threads, so any change to the operation sequence of a forward or a
// backward product, anywhere in training, shows here. The digests
// depend on libm (the LSTM's g gate and tanh(c), the GMM fit) and so on
// the toolchain, like the GMM and LSTM pins.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/durable.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "data/generators/realistic.h"
#include "nn/linear.h"
#include "synth/synthesizer.h"

namespace daisy::synth {
namespace {

struct Config {
  kern::Isa isa;
  size_t threads;
};

// Every available (ISA, threads) pair; AVX2 is left out, visibly, where
// the build or the CPU lacks it.
std::vector<Config> Configs() {
  std::vector<Config> out;
  for (kern::Isa isa : {kern::Isa::kScalar, kern::Isa::kAvx2}) {
    if (!kern::IsaAvailable(isa)) {
      std::printf("[  NOTE    ] %s kernel table unavailable; not pinned\n",
                  kern::IsaName(isa));
      continue;
    }
    for (size_t threads : {1u, 3u}) out.push_back({isa, threads});
  }
  return out;
}

void Apply(const Config& c) {
  kern::SetIsaForTesting(c.isa);
  par::SetNumThreads(c.threads);
}

void Restore() {
  kern::ResetIsaForTesting();
  par::SetNumThreads(0);
}

std::string Label(const Config& c) {
  return std::string(kern::IsaName(c.isa)) + " threads=" +
         std::to_string(c.threads);
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ULL", v);
  return buf;
}

uint64_t Digest(const Matrix& m) {
  return Fnv1a64(reinterpret_cast<const char*>(m.data()),
                 m.size() * sizeof(double));
}

// Folds one more digest into a running one (order-sensitive).
uint64_t Chain(uint64_t acc, uint64_t next) {
  const uint64_t parts[2] = {acc, next};
  return Fnv1a64(reinterpret_cast<const char*>(parts), sizeof parts);
}

// The e2ebench design points at a few iterations each and a smaller
// batch; networks keep the library defaults.
struct Point {
  const char* name;
  GanOptions gan;
  transform::TransformOptions topts;
};

Point MakePoint(const char* name) {
  Point p{name, {}, {}};
  p.gan.snapshots = 1;
  p.gan.seed = 17;
  p.gan.batch_size = 30;  // not a multiple of 4: training sees row tails
  const std::string n = name;
  if (n == "mlp_vtrain") {
    p.gan.algo = TrainAlgo::kVTrain;
    p.gan.iterations = 6;
  } else if (n == "lstm_wtrain") {
    p.gan.generator = GeneratorArch::kLstm;
    p.gan.algo = TrainAlgo::kWTrain;
    p.gan.iterations = 5;
  } else if (n == "mlp_ctrain") {
    p.gan.algo = TrainAlgo::kCTrain;
    p.gan.conditional = true;
    p.topts.exclude_label = true;
    p.gan.iterations = 5;
  } else {
    p.gan.algo = TrainAlgo::kDPTrain;
    p.gan.dp_engine = DpEngineKind::kVectorized;
    p.gan.iterations = 6;
  }
  return p;
}

struct TrainPin {
  const char* point;
  uint64_t samples;  // InferenceSamples bits of a 101-row latent batch
  uint64_t model;    // SaveToStream bytes
};

TrainPin RunPoint(const char* name, const data::Table& train) {
  const Point p = MakePoint(name);
  TableSynthesizer synth(p.gan, p.topts);
  const Status fit = synth.Fit(train);
  EXPECT_TRUE(fit.ok()) << name << ": " << fit.ToString();

  Rng rng(29);
  Matrix z, cond;
  std::vector<size_t> labels;
  synth.DrawLatents(101, &rng, &z, &cond, &labels);
  const Matrix samples = synth.InferenceSamples(z, cond);

  std::ostringstream os;
  EXPECT_TRUE(synth.SaveToStream(os).ok()) << name;
  const std::string bytes = os.str();
  return {name, Digest(samples), Fnv1a64(bytes.data(), bytes.size())};
}

TEST(TrainGoldenTest, DesignPointsFitDigests) {
  Rng data_rng(2101);
  const data::Table train = data::MakeAdultSim(600, &data_rng);
  const TrainPin want[] = {
      {"mlp_vtrain", 0xefcf260ded6b61aaULL, 0x1554cd58346bc88eULL},
      {"lstm_wtrain", 0xa18860fbbbc98d80ULL, 0x35fb0796e8894f32ULL},
      {"mlp_ctrain", 0xa8d5bbc5576c56dbULL, 0xc3e06fe7d91ff4fdULL},
      {"mlp_dptrain", 0x84c1f966d85bb046ULL, 0xdd884bd6016e9621ULL},
  };
  for (const Config& c : Configs()) {
    Apply(c);
    std::string got;
    bool same = true;
    for (const TrainPin& w : want) {
      const TrainPin g = RunPoint(w.point, train);
      same = same && g.samples == w.samples && g.model == w.model;
      got += std::string("      {\"") + g.point + "\", " + Hex(g.samples) +
             ", " + Hex(g.model) + "},\n";
    }
    EXPECT_TRUE(same) << Label(c) << ", got:\n" << got;
  }
  Restore();
}

// One Linear forward + backward at batch 37 (every row tail of a 4-row
// tile), for `in -> out`: the output, the weight and bias gradients and
// the input gradient, chained in that order.
uint64_t LinearDigest(size_t in, size_t out) {
  Rng rng(31 + in * 7 + out);
  nn::Linear layer(in, out, &rng);
  layer.bias().value = Matrix::Randn(1, out, &rng, 0.1);
  const Matrix x = Matrix::Randn(37, in, &rng);
  const Matrix g = Matrix::Randn(37, out, &rng);
  uint64_t d = Digest(layer.Forward(x, true));
  const Matrix dx = layer.Backward(g);
  d = Chain(d, Digest(layer.weight().grad));
  d = Chain(d, Digest(layer.bias().grad));
  return Chain(d, Digest(dx));
}

TEST(TrainGoldenTest, LinearForwardBackwardDigests) {
  struct Shape {
    size_t in, out;
    uint64_t want;
  };
  const Shape shapes[] = {
      {96, 1, 0x19dfd389edefc521ULL},  {96, 2, 0xcf5c526e2117c484ULL},
      {96, 5, 0x6f34e8dd03cabfa1ULL},  {96, 96, 0xfc3ef6fc232723bfULL},
      {1, 96, 0x7cf7fad772be70a4ULL},  {2, 96, 0xb6aeaafd222829daULL},
      {5, 96, 0x38d5a8a9dfd1ad7cULL},
  };
  for (const Config& c : Configs()) {
    Apply(c);
    std::string got;
    bool same = true;
    for (const Shape& s : shapes) {
      const uint64_t g = LinearDigest(s.in, s.out);
      same = same && g == s.want;
      got += "      {" + std::to_string(s.in) + ", " + std::to_string(s.out) +
             ", " + Hex(g) + "},\n";
    }
    EXPECT_TRUE(same) << Label(c) << ", got:\n" << got;
  }
  Restore();
}

}  // namespace
}  // namespace daisy::synth
