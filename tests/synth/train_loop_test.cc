// The one training loop's resume policy, checked the same way for every
// method that runs through it: GAN, VAE, both medGAN phases and
// PATE-GAN. A checkpoint that does not fit the run is refused with a
// Status before anything is trained or mutated; an empty directory is
// a cold start; and when a sentinel trip finds its in-memory rollback
// baseline poisoned, the loop falls back to the newest finite baseline
// on disk for the failing phase.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/medgan.h"
#include "baselines/pategan.h"
#include "baselines/vae.h"
#include "ckpt/checkpoint.h"
#include "data/generators/sdata.h"
#include "obs/metrics.h"
#include "synth/mlp_nets.h"
#include "synth/trainer.h"

namespace daisy {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("train_loop_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

const data::Table& SmallTable() {
  static const data::Table table = [] {
    Rng rng(7);
    data::SDataCatOptions opts;
    opts.num_records = 200;
    return data::MakeSDataCat(opts, &rng);
  }();
  return table;
}

// The loop knobs a test varies; everything else is fixed per method.
struct Knobs {
  std::string dir;  // checkpoint directory ("" = no checkpoints)
  bool resume = false;
  size_t max_iters_per_run = 0;
  size_t iterations = 0;  // 0 = the method's default run length
  bool untrained = false;  // no iterations at all: the fresh init
};

// What one fit leaves behind.
struct FitResult {
  Status status;
  bool fitted = false;
  bool paused = false;
  synth::StateDict state;  // every parameter (and buffer) afterwards
  size_t records = 0;      // telemetry records the sink received
  data::Table sample;      // 30 generated rows, when fitted
};

size_t Iters(const Knobs& k, size_t default_iters) {
  if (k.untrained) return 0;
  return k.iterations > 0 ? k.iterations : default_iters;
}

template <typename Options>
void SetLoop(const Knobs& k, Options* o) {
  o->checkpoint_every = 2;
  o->checkpoint_keep = 10;
  o->checkpoint_dir = k.dir;
  o->resume = k.resume;
  o->max_iters_per_run = k.max_iters_per_run;
}

template <typename Synth>
void Finish(Synth* s, FitResult* r) {
  r->fitted = s->fitted();
  r->paused = s->paused();
  r->state = s->ParamState();
  if (r->fitted) {
    Rng gen(99);
    r->sample = s->Generate(30, &gen);
  }
}

FitResult FitGan(const Knobs& k) {
  const data::Table& table = SmallTable();
  Rng rng(41);
  const auto transformer =
      transform::RecordTransformer::Fit(table, {}, &rng);
  synth::MlpGenerator g(8, 0, {16}, transformer.segments(), &rng);
  synth::MlpDiscriminator d(transformer.sample_dim(), 0, {16}, false, &rng);
  synth::GanOptions o;
  o.iterations = Iters(k, 8);
  o.batch_size = 16;
  o.snapshots = 4;
  o.seed = 41;
  SetLoop(k, &o);
  synth::GanTrainer trainer(&g, &d, &transformer, o);
  obs::MemorySink sink;
  const synth::TrainResult result = trainer.Train(table, &rng, &sink);
  FitResult r;
  r.status = result.health;
  r.fitted = !result.refused;
  r.paused = result.paused;
  r.records = sink.records().size();
  r.state = synth::GetState(g.Params());
  for (Matrix& m : synth::GetState(d.Params())) r.state.push_back(m);
  for (Matrix& m : synth::GetBufferState(g.Buffers())) r.state.push_back(m);
  return r;
}

FitResult FitVae(const Knobs& k) {
  baselines::VaeOptions o;
  o.epochs = Iters(k, 6);
  o.hidden = {16};
  o.latent_dim = 4;
  o.batch_size = 32;
  SetLoop(k, &o);
  baselines::VaeSynthesizer vae(o, {});
  obs::MemorySink sink;
  FitResult r;
  r.status = vae.Fit(SmallTable(), &sink);
  r.records = sink.records().size();
  Finish(&vae, &r);
  return r;
}

// medGAN with `phase` (0 = autoencoder pretraining, 1 = adversarial
// training) as the phase under test: the knobs set that phase's run
// length; phase 1 follows two pretraining epochs.
FitResult FitMedGan(const Knobs& k, uint64_t phase) {
  baselines::MedGanOptions o;
  o.ae_epochs = phase == 0 ? Iters(k, 4) : (k.untrained ? 0 : 2);
  o.gan_iterations = phase == 0 ? 0 : Iters(k, 4);
  o.hidden = {16};
  o.latent_dim = 4;
  o.batch_size = 32;
  SetLoop(k, &o);
  baselines::MedGanSynthesizer medgan(o, {});
  obs::MemorySink sink;
  FitResult r;
  r.status = medgan.Fit(SmallTable(), &sink);
  r.records = sink.records().size();
  Finish(&medgan, &r);
  return r;
}

FitResult FitPateGan(const Knobs& k) {
  baselines::PateGanOptions o;
  o.iterations = Iters(k, 6);
  o.num_teachers = 3;
  o.hidden = {16};
  o.noise_dim = 4;
  o.batch_size = 16;
  SetLoop(k, &o);
  baselines::PateGanSynthesizer pategan(o, {});
  obs::MemorySink sink;
  FitResult r;
  r.status = pategan.Fit(SmallTable(), &sink);
  r.records = sink.records().size();
  Finish(&pategan, &r);
  return r;
}

// One method as these tests drive it.
struct Method {
  const char* name;
  uint64_t num_phases;  // checkpoint phases the method writes
  // max_iters_per_run that leaves the newest checkpoint in the phase
  // under test (0 = run to completion).
  size_t setup_pause;
  std::function<FitResult(const Knobs&)> fit;
};

const std::vector<Method>& Methods() {
  static const std::vector<Method> methods = {
      {"gan", 1, 0, FitGan},
      {"vae", 1, 0, FitVae},
      {"medgan_phase0", 2, 2, [](const Knobs& k) { return FitMedGan(k, 0); }},
      {"medgan_phase1", 2, 0, [](const Knobs& k) { return FitMedGan(k, 1); }},
      {"pategan", 1, 0, FitPateGan},
  };
  return methods;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectSameState(const synth::StateDict& a, const synth::StateDict& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(SameBits(a[i], b[i])) << "state entry " << i << " differs";
}

void ExpectSameTable(const data::Table& a, const data::Table& b) {
  ASSERT_EQ(a.num_records(), b.num_records());
  ASSERT_GT(a.num_records(), 0u);
  for (size_t i = 0; i < a.num_records(); ++i)
    for (size_t j = 0; j < a.num_attributes(); ++j)
      ASSERT_EQ(a.value(i, j), b.value(i, j)) << "(" << i << "," << j << ")";
}

enum class Bad {
  kForeignRun,
  kOtherSeed,
  kOtherRunLength,
  kIterPastEnd,
  kUnwrittenPhase,
  kParamShape,
  kOptimizerCount,
  kOptimizerBlob,
  kExtraCount,
  kRngWords,
  kCorruptOnly,
};

const char* BadName(Bad bad) {
  switch (bad) {
    case Bad::kForeignRun: return "foreign_run";
    case Bad::kOtherSeed: return "other_seed";
    case Bad::kOtherRunLength: return "other_run_length";
    case Bad::kIterPastEnd: return "iter_past_end";
    case Bad::kUnwrittenPhase: return "unwritten_phase";
    case Bad::kParamShape: return "param_shape";
    case Bad::kOptimizerCount: return "optimizer_count";
    case Bad::kOptimizerBlob: return "optimizer_blob";
    case Bad::kExtraCount: return "extra_count";
    case Bad::kRngWords: return "rng_words";
    case Bad::kCorruptOnly: return "corrupt_only";
  }
  return "?";
}

void PrintTo(Bad bad, std::ostream* os) { *os << BadName(bad); }

// Rewrites the newest checkpoint in `dir` (with a valid checksum) so
// that it no longer fits the run, or garbles every checkpoint.
void Doctor(const std::string& dir, Bad bad, uint64_t num_phases) {
  const std::vector<std::string> files = ckpt::CheckpointStore(dir).ListFiles();
  ASSERT_FALSE(files.empty());
  if (bad == Bad::kCorruptOnly) {
    for (const std::string& f : files)
      std::ofstream(f, std::ios::binary | std::ios::trunc) << "garbage";
    return;
  }
  auto loaded = ckpt::LoadCheckpoint(files.back());
  ASSERT_TRUE(loaded.ok());
  ckpt::TrainCheckpoint c = loaded.take();
  switch (bad) {
    case Bad::kForeignRun: c.run = "someone.else"; break;
    case Bad::kOtherSeed: c.seed += 1; break;
    case Bad::kOtherRunLength: c.total_iters += 1; break;
    case Bad::kIterPastEnd: c.iter = c.total_iters + 1; break;
    case Bad::kUnwrittenPhase: c.phase = num_phases; break;
    case Bad::kParamShape:
      c.params[0] = Matrix(c.params[0].rows() + 1, c.params[0].cols());
      break;
    case Bad::kOptimizerCount: c.optimizer_state.pop_back(); break;
    case Bad::kOptimizerBlob: c.optimizer_state.back() = "garbage"; break;
    case Bad::kExtraCount: c.extra.push_back(1.0); break;
    case Bad::kRngWords: c.rng_state.pop_back(); break;
    case Bad::kCorruptOnly: break;
  }
  ASSERT_TRUE(ckpt::SaveCheckpoint(c, files.back()).ok());
}

class TrainLoopRefusalTest
    : public ::testing::TestWithParam<std::tuple<size_t, Bad>> {};

TEST_P(TrainLoopRefusalTest, RefusesBeforeTouchingAnything) {
  const Method& m = Methods()[std::get<0>(GetParam())];
  const Bad bad = std::get<1>(GetParam());
  Knobs k;
  k.dir = FreshDir(std::string(m.name) + "_" + BadName(bad));
  k.max_iters_per_run = m.setup_pause;
  ASSERT_TRUE(m.fit(k).status.ok());
  Doctor(k.dir, bad, m.num_phases);

  Knobs fresh_knobs;
  fresh_knobs.untrained = true;
  const FitResult fresh = m.fit(fresh_knobs);
  ASSERT_TRUE(fresh.fitted);

  k.resume = true;
  k.max_iters_per_run = 0;
  const FitResult refused = m.fit(k);
  EXPECT_FALSE(refused.status.ok());
  EXPECT_FALSE(refused.fitted);
  EXPECT_EQ(refused.records, 0u) << "a refused run logged telemetry";
  ExpectSameState(refused.state, fresh.state);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, TrainLoopRefusalTest,
    ::testing::Combine(
        ::testing::Range<size_t>(0, 5),
        ::testing::Values(Bad::kForeignRun, Bad::kOtherSeed,
                          Bad::kOtherRunLength, Bad::kIterPastEnd,
                          Bad::kUnwrittenPhase, Bad::kParamShape,
                          Bad::kOptimizerCount, Bad::kOptimizerBlob,
                          Bad::kExtraCount,
                          Bad::kRngWords, Bad::kCorruptOnly)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, Bad>>& info) {
      return std::string(Methods()[std::get<0>(info.param)].name) + "_" +
             BadName(std::get<1>(info.param));
    });

class TrainLoopColdStartTest : public ::testing::TestWithParam<size_t> {};

// Schedulers always pass --resume: with nothing saved yet it is a
// fresh run, bitwise.
TEST_P(TrainLoopColdStartTest, EmptyDirIsAColdStart) {
  const Method& m = Methods()[GetParam()];
  const FitResult plain = m.fit(Knobs{});
  Knobs k;
  k.dir = FreshDir(std::string(m.name) + "_cold");
  k.resume = true;
  const FitResult resumed = m.fit(k);
  ASSERT_TRUE(plain.status.ok());
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_TRUE(resumed.fitted);
  ExpectSameState(plain.state, resumed.state);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, TrainLoopColdStartTest, ::testing::Range<size_t>(0, 5),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(Methods()[info.param].name);
    });

// A baseline's durable fallback, staged as in CheckpointResumeTest's
// GAN recipe: a run pauses after its second checkpoint of the phase
// under test; that checkpoint is doctored so its parameters, buffers
// AND rollback baseline are NaN; the resumed run trips the sentinel at
// once and must land on the older checkpoint's healthy state — which
// equals an uninterrupted run stopped at that checkpoint's iteration.
struct Fallback {
  const char* name;
  size_t first_phase_iters;  // iterations before the phase under test
  std::function<FitResult(const Knobs&)> fit;
};

void PrintTo(const Fallback& f, std::ostream* os) { *os << f.name; }

class TrainLoopFallbackTest : public ::testing::TestWithParam<Fallback> {};

TEST_P(TrainLoopFallbackTest, RestoresFromOlderCheckpoint) {
  const Fallback& f = GetParam();
  Knobs k;
  k.dir = FreshDir(std::string(f.name) + "_fallback");
  k.iterations = 6;
  k.max_iters_per_run = f.first_phase_iters + 4;  // after checkpoints 2, 4
  const FitResult paused = f.fit(k);
  ASSERT_TRUE(paused.status.ok());
  ASSERT_TRUE(paused.paused);

  const std::vector<std::string> files =
      ckpt::CheckpointStore(k.dir).ListFiles();
  ASSERT_GE(files.size(), 2u);
  auto newest = ckpt::LoadCheckpoint(files.back());
  ASSERT_TRUE(newest.ok());
  ckpt::TrainCheckpoint bad = newest.take();
  ASSERT_EQ(bad.iter, 4u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (Matrix& m : bad.params) m.Fill(nan);
  for (Matrix& m : bad.buffers) m.Fill(nan);
  for (Matrix& m : bad.healthy_params) m.Fill(nan);
  for (Matrix& m : bad.healthy_buffers) m.Fill(nan);
  ASSERT_TRUE(ckpt::SaveCheckpoint(bad, files.back()).ok());

  k.resume = true;
  k.max_iters_per_run = 0;
  const FitResult tripped = f.fit(k);
  EXPECT_FALSE(tripped.status.ok());  // sentinel tripped on NaN losses
  ASSERT_TRUE(tripped.fitted);

  Knobs reference;
  reference.iterations = 2;  // the surviving checkpoint's iteration
  const FitResult expected = f.fit(reference);
  ASSERT_TRUE(expected.status.ok());
  ExpectSameTable(tripped.sample, expected.sample);
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, TrainLoopFallbackTest,
    ::testing::Values(
        Fallback{"vae", 0, FitVae},
        Fallback{"medgan_phase0", 0,
                 [](const Knobs& k) { return FitMedGan(k, 0); }},
        Fallback{"medgan_phase1", 2,
                 [](const Knobs& k) { return FitMedGan(k, 1); }},
        Fallback{"pategan", 0, FitPateGan}),
    [](const ::testing::TestParamInfo<Fallback>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace daisy
