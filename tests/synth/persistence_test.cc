#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/durable.h"
#include "core/serial.h"
#include "data/generators/realistic.h"
#include "synth/synthesizer.h"

namespace daisy::synth {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test: ctest runs each test as its own process, in parallel.
  std::string path_ = ::testing::TempDir() + "daisy_model_test_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      ".bin";
};

GanOptions TinyOptions() {
  GanOptions opts;
  opts.iterations = 20;
  opts.batch_size = 16;
  opts.g_hidden = {24};
  opts.d_hidden = {24};
  opts.noise_dim = 8;
  return opts;
}

TEST_F(PersistenceTest, SaveLoadRoundTripGeneratesIdenticalData) {
  Rng rng(1);
  data::Table train = data::MakeAdultSim(250, &rng);
  TableSynthesizer synth(TinyOptions(), {});
  synth.Fit(train);
  ASSERT_TRUE(synth.Save(path_).ok());

  auto loaded = TableSynthesizer::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Rng g1(7), g2(7);
  data::Table a = synth.Generate(80, &g1);
  data::Table b = loaded.value()->Generate(80, &g2);
  ASSERT_EQ(a.num_records(), b.num_records());
  for (size_t i = 0; i < a.num_records(); ++i)
    for (size_t j = 0; j < a.num_attributes(); ++j)
      ASSERT_DOUBLE_EQ(a.value(i, j), b.value(i, j))
          << "record " << i << " attr " << j;
}

TEST_F(PersistenceTest, ConditionalModelRoundTrips) {
  Rng rng(2);
  data::Table train = data::MakeAdultSim(250, &rng);
  GanOptions opts = TinyOptions();
  opts.algo = TrainAlgo::kCTrain;
  TableSynthesizer synth(opts, {});
  synth.Fit(train);
  ASSERT_TRUE(synth.Save(path_).ok());
  auto loaded = TableSynthesizer::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Rng g1(9), g2(9);
  data::Table a = synth.Generate(60, &g1);
  data::Table b = loaded.value()->Generate(60, &g2);
  for (size_t i = 0; i < 60; ++i)
    ASSERT_EQ(a.label(i), b.label(i));
}

TEST_F(PersistenceTest, LstmModelRoundTrips) {
  Rng rng(3);
  data::Table train = data::MakeHtru2Sim(200, &rng);
  GanOptions opts = TinyOptions();
  opts.generator = GeneratorArch::kLstm;
  opts.lstm_hidden = 16;
  opts.lstm_feature = 8;
  TableSynthesizer synth(opts, {});
  synth.Fit(train);
  ASSERT_TRUE(synth.Save(path_).ok());
  auto loaded = TableSynthesizer::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Rng g1(11), g2(11);
  data::Table a = synth.Generate(40, &g1);
  data::Table b = loaded.value()->Generate(40, &g2);
  for (size_t i = 0; i < 40; ++i)
    ASSERT_DOUBLE_EQ(a.value(i, 0), b.value(i, 0));
}

TEST_F(PersistenceTest, SaveUnfittedFails) {
  TableSynthesizer synth(TinyOptions(), {});
  EXPECT_FALSE(synth.Save(path_).ok());
}

TEST_F(PersistenceTest, LoadMissingFileFails) {
  auto loaded = TableSynthesizer::Load("/does/not/exist.model");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kIOError);
}

TEST_F(PersistenceTest, LoadCorruptFileFails) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  std::fputs("definitely-not-a-model 42 junk", f);
  std::fclose(f);
  auto loaded = TableSynthesizer::Load(path_);
  EXPECT_FALSE(loaded.ok());
}

// Reads a whole file as bytes.
std::string FileBytes(const std::string& path) {
  auto bytes = ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.take() : std::string();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string SavePayload(const TableSynthesizer& synth) {
  std::ostringstream os;
  EXPECT_TRUE(synth.SaveToStream(os).ok());
  return os.str();
}

// Replaces newline-separated payload line `line` (0 = the format tag).
// Valid for the numeric header tokens ahead of the schema, where one
// line holds one token.
std::string ForgeLine(const std::string& payload, size_t line,
                      const std::string& value) {
  size_t begin = 0;
  for (size_t i = 0; i < line; ++i) begin = payload.find('\n', begin) + 1;
  const size_t end = payload.find('\n', begin);
  return payload.substr(0, begin) + value + payload.substr(end);
}

// Loads `payload` from a file that carries a VALID checksum trailer, so
// the forged content — not the checksum — is what Load must refuse.
Status LoadForged(const std::string& path, std::string payload) {
  AppendChecksumTrailer(&payload);
  WriteBytes(path, payload);
  auto loaded = TableSynthesizer::Load(path);
  return loaded.ok() ? Status::OK() : loaded.status();
}

// The fixture's shared path_ races with the other tests under a
// parallel ctest; the tests below write files of their own.
class ModelFileTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "daisy_model_file_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      ".bin";
};

TEST_F(ModelFileTest, ModelFileIsPayloadPlusChecksumTrailer) {
  Rng rng(4);
  data::Table train = data::MakeAdultSim(200, &rng);
  TableSynthesizer synth(TinyOptions(), {});
  synth.Fit(train);
  ASSERT_TRUE(synth.Save(path_).ok());
  const std::string payload = SavePayload(synth);
  ASSERT_EQ(payload.rfind("daisy-model-v3\n", 0), 0u);
  const std::string file = FileBytes(path_);
  auto payload_len = VerifyChecksumTrailer(file, "model");
  ASSERT_TRUE(payload_len.ok()) << payload_len.status().ToString();
  EXPECT_EQ(file.substr(0, payload_len.value()), payload);
  EXPECT_EQ(file.size(), payload.size() + std::string("checksum ").size() +
                             16 + 1);
}

// A model small enough to sweep every byte of its file.
std::unique_ptr<TableSynthesizer> FitTinyModel() {
  data::Table train(data::Schema({data::Attribute::Numerical("x"),
                                  data::Attribute::Categorical("c", {"a", "b"})}));
  Rng rng(6);
  for (int i = 0; i < 40; ++i)
    train.AppendRecord({rng.Gaussian(), static_cast<double>(i % 2)});
  GanOptions opts;
  opts.iterations = 2;
  opts.batch_size = 8;
  opts.noise_dim = 2;
  opts.g_hidden = {3};
  opts.d_hidden = {3};
  opts.snapshots = 1;
  transform::TransformOptions topts;
  topts.numerical = transform::NumericalNormalization::kSimple;
  auto synth = std::make_unique<TableSynthesizer>(opts, topts);
  EXPECT_TRUE(synth->Fit(train).ok());
  return synth;
}

TEST_F(ModelFileTest, EveryByteFlipAndTruncationOfTheFileIsRefused) {
  const auto synth = FitTinyModel();
  ASSERT_TRUE(synth->Save(path_).ok());
  const std::string valid = FileBytes(path_);
  ASSERT_TRUE(TableSynthesizer::Load(path_).ok());

  for (size_t i = 0; i < valid.size(); ++i) {
    std::string flipped = valid;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    WriteBytes(path_, flipped);
    auto loaded = TableSynthesizer::Load(path_);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << i << " went undetected";
    EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
  }
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    WriteBytes(path_, valid.substr(0, cut));
    auto loaded = TableSynthesizer::Load(path_);
    ASSERT_FALSE(loaded.ok()) << "truncation to " << cut
                              << " bytes went undetected";
    EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
  }
}

// Forged payloads under a valid trailer: every out-of-range enum or
// width and every option combination the constructor forbids comes back
// as InvalidArgument before any network is built.
TEST_F(ModelFileTest, RefusesForgedStreamsWithValidTrailer) {
  Rng rng(5);
  data::Table train = data::MakeAdultSim(200, &rng);
  TableSynthesizer synth(TinyOptions(), {});
  synth.Fit(train);
  const std::string v3 = SavePayload(synth);
  ASSERT_TRUE(LoadForged(path_, v3).ok());

  // TinyOptions has one generator and one discriminator width, so the
  // header layout is fixed: tag, gen, disc, cond, simp, noise, ng, w,
  // nd, w, lstm_hidden, lstm_feature, seed, sampler, parent_cond_dim,
  // categorical, numerical, form.
  const std::vector<std::pair<std::string, std::string>> forged = {
      {"generator arch 4", ForgeLine(v3, 1, "4")},
      {"discriminator arch 9", ForgeLine(v3, 2, "9")},
      {"retired BiLSTM discriminator code 2", ForgeLine(v3, 2, "2")},
      {"conditional + training-by-sampling",
       ForgeLine(ForgeLine(v3, 3, "1"), 13, "2")},
      {"parent conditioning + conditional",
       ForgeLine(ForgeLine(v3, 3, "1"), 14, "5")},
      {"parent conditioning + training-by-sampling",
       ForgeLine(ForgeLine(v3, 13, "2"), 14, "5")},
      {"sampler kind 3", ForgeLine(v3, 13, "3")},
      {"noise dim 0", ForgeLine(v3, 5, "0")},
      {"hidden width 1e9", ForgeLine(v3, 7, "1000000000")},
      {"lstm hidden 0", ForgeLine(v3, 10, "0")},
      {"parent cond dim 1e9", ForgeLine(v3, 14, "1000000000")},
      {"categorical encoding 2", ForgeLine(v3, 15, "2")},
      {"numerical normalization 2", ForgeLine(v3, 16, "2")},
      {"sample form 2", ForgeLine(v3, 17, "2")},
      {"cnn discriminator on vector samples", ForgeLine(v3, 2, "3")},
      {"conditional flag on an unconditional model", ForgeLine(v3, 3, "1")},
      {"wrong format tag", ForgeLine(v3, 0, "daisy-model-v2")},
  };
  // The first segment's kind token follows "segments\n<count>\n".
  const size_t seg = v3.find("\nsegments\n");
  ASSERT_NE(seg, std::string::npos);
  size_t kind_line = 0;
  for (size_t i = 0; i < seg + 1; ++i) kind_line += v3[i] == '\n';
  kind_line += 2;
  std::vector<std::pair<std::string, std::string>> with_segments = forged;
  with_segments.push_back({"segment kind 7", ForgeLine(v3, kind_line, "7")});
  with_segments.push_back(
      {"segment kind disagrees with its attribute",
       ForgeLine(v3, kind_line, "2")});

  for (const auto& [what, payload] : with_segments) {
    ASSERT_NE(payload, v3) << what;
    const Status st = LoadForged(path_, payload);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument)
        << what << ": " << st.ToString();
  }
}

// A parent-conditioned model round-trips through the public Save/Load:
// the parent width is restored from its payload slot, and generation
// under the same parent rows is bitwise identical.
TEST_F(ModelFileTest, ParentConditionedModelRoundTrips) {
  Rng rng(8);
  const data::Table train = data::MakeAdultSim(120, &rng);
  TableSynthesizer child(TinyOptions(), {});
  const Matrix parent_rows = Matrix::Randn(train.num_records(), 3, &rng);
  ASSERT_TRUE(child.FitConditioned(train, parent_rows).ok());
  ASSERT_TRUE(child.Save(path_).ok());
  auto loaded = TableSynthesizer::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const Matrix cond = parent_rows.RowRange(0, 40);
  Rng r1(9), r2(9);
  auto a = child.GenerateConditioned(cond, &r1);
  auto b = loaded.value()->GenerateConditioned(cond, &r2);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().num_records(), 40u);
  ASSERT_EQ(b.value().num_records(), 40u);
  for (size_t i = 0; i < 40; ++i)
    for (size_t j = 0; j < train.num_attributes(); ++j)
      ASSERT_EQ(a.value().value(i, j), b.value().value(i, j))
          << "record " << i << " attr " << j;
  EXPECT_EQ(loaded.value()->GenerateConditioned(Matrix(2, 4), &r1)
                .status()
                .code(),
            Status::Code::kInvalidArgument);
}

TEST(SerialTest, PrimitivesRoundTrip) {
  std::stringstream ss;
  Serializer out(&ss);
  out.WriteTag("hello");
  out.WriteU64(123456789012345ULL);
  out.WriteDouble(-3.14159265358979312);
  out.WriteString("with spaces\nand newlines");
  Matrix m = Matrix::FromRows({{1.5, -2.5}, {0.0, 1e-17}});
  out.WriteMatrix(m);
  out.WriteDoubleVector({1.0, 2.0, 3.0});

  Deserializer in(&ss);
  in.ExpectTag("hello");
  EXPECT_EQ(in.ReadU64(), 123456789012345ULL);
  EXPECT_DOUBLE_EQ(in.ReadDouble(), -3.14159265358979312);
  EXPECT_EQ(in.ReadString(), "with spaces\nand newlines");
  Matrix back = in.ReadMatrix();
  ASSERT_TRUE(back.SameShape(m));
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 2; ++c)
      EXPECT_DOUBLE_EQ(back(r, c), m(r, c));
  EXPECT_EQ(in.ReadDoubleVector(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(in.ok());
}

TEST(SerialTest, TagMismatchLatchesError) {
  std::stringstream ss("wrong 5");
  Deserializer in(&ss);
  in.ExpectTag("right");
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.ReadU64(), 0u);  // subsequent reads are inert
}

}  // namespace
}  // namespace daisy::synth
