// End-to-end tests for the relational synthesizer: referential
// integrity of the generated database (FK validity exactly 1.0),
// fan-out fidelity (join-size KL under a fixed threshold), the full
// byte-determinism matrix (threads x SIMD ISA x in-memory/paged
// training), bundle save/load round trips, and loud rejection of
// corrupt training inputs.
#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "data/columnar.h"
#include "data/generators/relational_pair.h"
#include "eval/relational.h"
#include "relational/bundle.h"
#include "relational/relational_synthesizer.h"

namespace daisy::rel {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

data::RelationalPair MakePair(uint64_t seed = 31) {
  data::RelationalPairOptions popts;
  popts.num_parents = 60;
  popts.max_fanout = 4;
  Rng rng(seed);
  return data::MakeRelationalPair(popts, &rng);
}

RelationalOptions TinyOptions(const std::string& work_dir) {
  RelationalOptions opts;
  opts.gan.iterations = 12;
  opts.gan.batch_size = 16;
  opts.gan.g_hidden = {16};
  opts.gan.d_hidden = {16};
  opts.gan.noise_dim = 4;
  opts.gan.seed = 71;
  opts.work_dir = work_dir;
  return opts;
}

std::vector<data::Table> FitAndGenerate(const data::RelationalPair& pair,
                                        const RelationalOptions& opts,
                                        bool paged,
                                        const std::string& dir) {
  RelationalSynthesizer synth(opts);
  Status health;
  if (paged) {
    const std::string ppath = dir + "/users.dcol";
    const std::string cpath = dir + "/orders.dcol";
    EXPECT_TRUE(data::WriteColumnar(pair.parent, ppath, 16).ok());
    EXPECT_TRUE(data::WriteColumnar(pair.child, cpath, 16).ok());
    data::PagedTable::Options popen;
    popen.page_budget = 4;
    auto p = data::PagedTable::Open(ppath, popen);
    auto c = data::PagedTable::Open(cpath, popen);
    EXPECT_TRUE(p.ok() && c.ok());
    health = synth.Fit(pair.schema,
                       {{nullptr, p.value().get()},
                        {nullptr, c.value().get()}});
  } else {
    health = synth.Fit(pair.schema,
                       {{&pair.parent, nullptr}, {&pair.child, nullptr}});
  }
  EXPECT_TRUE(health.ok()) << health.ToString();
  Rng gen_rng(123);
  auto out = synth.Generate(1.0, &gen_rng);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? out.take() : std::vector<data::Table>{};
}

bool BitwiseEqual(const data::Table& a, const data::Table& b) {
  if (a.num_records() != b.num_records() ||
      a.num_attributes() != b.num_attributes())
    return false;
  for (size_t r = 0; r < a.num_records(); ++r) {
    for (size_t c = 0; c < a.num_attributes(); ++c) {
      const double x = a.value(r, c), y = b.value(r, c);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

bool BitwiseEqual(const std::vector<data::Table>& a,
                  const std::vector<data::Table>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!BitwiseEqual(a[i], b[i])) return false;
  return true;
}

TEST(RelationalSynthTest, GeneratedDatabaseHasPerfectFkValidity) {
  const data::RelationalPair pair = MakePair();
  const std::string dir = FreshDir("rel_fk");
  const auto out = FitAndGenerate(pair, TinyOptions(dir), false, dir);
  ASSERT_EQ(out.size(), 2u);

  // Root size: scale 1.0 reproduces the real parent count; schemas are
  // the originals, keys included.
  EXPECT_EQ(out[0].num_records(), pair.parent.num_records());
  ASSERT_EQ(out[0].num_attributes(), 3u);
  ASSERT_EQ(out[1].num_attributes(), 4u);

  // Synthetic primary keys are 1..n, unique.
  std::set<double> pks;
  for (size_t r = 0; r < out[0].num_records(); ++r)
    pks.insert(out[0].value(r, 0));
  EXPECT_EQ(pks.size(), out[0].num_records());
  EXPECT_EQ(*pks.begin(), 1.0);

  auto validity = eval::FkValidityRate(out[0], 0, out[1], 1);
  ASSERT_TRUE(validity.ok()) << validity.status().ToString();
  EXPECT_EQ(validity.value(), 1.0) << "referential integrity must hold by "
                                      "construction, not approximately";
}

TEST(RelationalSynthTest, JoinSizeKlStaysBelowThreshold) {
  const data::RelationalPair pair = MakePair();
  const std::string dir = FreshDir("rel_kl");
  const auto out = FitAndGenerate(pair, TinyOptions(dir), false, dir);
  ASSERT_EQ(out.size(), 2u);
  auto kl = eval::JoinSizeKl(pair.parent, 0, pair.child, 1,
                             out[0], 0, out[1], 1);
  ASSERT_TRUE(kl.ok()) << kl.status().ToString();
  // The fan-out model is the empirical histogram itself, so even this
  // tiny run must keep the count distribution close.
  EXPECT_LT(kl.value(), 0.25) << "join-size KL drifted";
  EXPECT_GE(kl.value(), 0.0);

  // Mean synthetic fan-out tracks the real one.
  const double real_mean = static_cast<double>(pair.child.num_records()) /
                           static_cast<double>(pair.parent.num_records());
  const double synth_mean = static_cast<double>(out[1].num_records()) /
                            static_cast<double>(out[0].num_records());
  EXPECT_NEAR(synth_mean, real_mean, 1.0);
}

TEST(RelationalSynthTest, ByteDeterministicAcrossThreadCounts) {
  const data::RelationalPair pair = MakePair();
  const size_t restore = par::NumThreads();
  par::SetNumThreads(1);
  const auto base =
      FitAndGenerate(pair, TinyOptions(FreshDir("rel_t1")), false,
                     FreshDir("rel_t1d"));
  for (const size_t threads : {size_t{2}, size_t{7}}) {
    par::SetNumThreads(threads);
    const auto run = FitAndGenerate(
        pair, TinyOptions(FreshDir("rel_tn")), false, FreshDir("rel_tnd"));
    EXPECT_TRUE(BitwiseEqual(base, run))
        << "output diverged at " << threads << " threads";
  }
  par::SetNumThreads(restore);
}

TEST(RelationalSynthTest, ByteDeterministicPagedVsInMemory) {
  const data::RelationalPair pair = MakePair();
  const std::string mem_dir = FreshDir("rel_mem");
  const std::string paged_dir = FreshDir("rel_paged");
  const auto mem = FitAndGenerate(pair, TinyOptions(mem_dir), false, mem_dir);
  const auto paged =
      FitAndGenerate(pair, TinyOptions(paged_dir), true, paged_dir);
  EXPECT_TRUE(BitwiseEqual(mem, paged))
      << "paged training must be byte-identical to in-memory";
}

TEST(RelationalSynthTest, ByteDeterministicScalarVsAvx2) {
  if (!kern::IsaAvailable(kern::Isa::kAvx2)) {
    GTEST_SKIP() << "AVX2 kernel table unavailable on this machine/build "
                    "- forced-ISA comparison not run";
  }
  const data::RelationalPair pair = MakePair();
  kern::SetIsaForTesting(kern::Isa::kScalar);
  const auto scalar = FitAndGenerate(pair, TinyOptions(FreshDir("rel_sc")),
                                     false, FreshDir("rel_scd"));
  kern::SetIsaForTesting(kern::Isa::kAvx2);
  const auto avx2 = FitAndGenerate(pair, TinyOptions(FreshDir("rel_av")),
                                   false, FreshDir("rel_avd"));
  kern::ResetIsaForTesting();
  EXPECT_TRUE(BitwiseEqual(scalar, avx2))
      << "forced scalar vs forced avx2 runs diverged";
}

TEST(RelationalSynthTest, SaveLoadGenerateIsBitwiseIdentical) {
  const data::RelationalPair pair = MakePair();
  const std::string dir = FreshDir("rel_saveload");
  RelationalSynthesizer synth(TinyOptions(dir));
  ASSERT_TRUE(synth.Fit(pair.schema, {{&pair.parent, nullptr},
                                      {&pair.child, nullptr}})
                  .ok());
  const std::string path = dir + "/db.daisyrel";
  ASSERT_TRUE(synth.Save(path).ok());

  auto loaded = RelationalSynthesizer::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value()->fitted());
  EXPECT_EQ(loaded.value()->schema().num_tables(), 2u);

  Rng g1(55), g2(55);
  auto a = synth.Generate(1.5, &g1);
  auto b = loaded.value()->Generate(1.5, &g2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(BitwiseEqual(a.value(), b.value()))
      << "a reloaded bundle must generate the identical database";
}

// Replaces newline-separated line `line` of an embedded model payload
// (0 = its format tag; the numeric header tokens are one per line).
std::string ForgeModelLine(const std::string& blob, size_t line,
                           const std::string& value) {
  size_t begin = 0;
  for (size_t i = 0; i < line; ++i) begin = blob.find('\n', begin) + 1;
  const size_t end = blob.find('\n', begin);
  return blob.substr(0, begin) + value + blob.substr(end);
}

TEST(RelationalSynthTest, RejectsForgedModelInsideValidBundle) {
  // A bundle whose outer checksum is valid but whose embedded model is
  // forged must be refused with InvalidArgument, not crash at load.
  const data::RelationalPair pair = MakePair();
  const std::string dir = FreshDir("rel_forged_model");
  RelationalSynthesizer synth(TinyOptions(dir));
  ASSERT_TRUE(synth.Fit(pair.schema, {{&pair.parent, nullptr},
                                      {&pair.child, nullptr}})
                  .ok());
  const std::string path = dir + "/db.daisyrel";
  ASSERT_TRUE(synth.Save(path).ok());
  auto bundle = LoadBundle(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_EQ(bundle.value().tables.size(), 2u);

  // Root table: generator arch 4. Child table (parent-conditioned):
  // the conditional flag, which parent conditioning excludes.
  for (const auto& [table, line, value] :
       {std::tuple<size_t, size_t, const char*>{0, 1, "4"},
        std::tuple<size_t, size_t, const char*>{1, 3, "1"}}) {
    RelationalBundle forged = bundle.value();
    std::string& blob = forged.tables[table].model_blob;
    blob = ForgeModelLine(blob, line, value);
    const std::string forged_path = dir + "/forged.daisyrel";
    ASSERT_TRUE(SaveBundle(forged, forged_path).ok());
    auto loaded = RelationalSynthesizer::Load(forged_path);
    ASSERT_FALSE(loaded.ok()) << "table " << table << " line " << line;
    EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument)
        << loaded.status().ToString();
  }
}

TEST(RelationalSynthTest, GenerateBeforeFitIsFailedPrecondition) {
  RelationalSynthesizer synth(TinyOptions(FreshDir("rel_unfit")));
  Rng rng(1);
  auto out = synth.Generate(1.0, &rng);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), Status::Code::kFailedPrecondition);
}

TEST(RelationalSynthTest, RejectsDanglingForeignKey) {
  data::RelationalPair pair = MakePair();
  ASSERT_GT(pair.child.num_records(), 0u);
  pair.child.set_value(0, 1, 424242.0);  // no such parent
  RelationalSynthesizer synth(TinyOptions(FreshDir("rel_dangle")));
  const Status st = synth.Fit(
      pair.schema, {{&pair.parent, nullptr}, {&pair.child, nullptr}});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("dangling"), std::string::npos)
      << st.message();
}

TEST(RelationalSynthTest, RejectsDuplicateParentPrimaryKey) {
  data::RelationalPair pair = MakePair();
  pair.parent.set_value(1, 0, pair.parent.value(0, 0));
  RelationalSynthesizer synth(TinyOptions(FreshDir("rel_dup")));
  const Status st = synth.Fit(
      pair.schema, {{&pair.parent, nullptr}, {&pair.child, nullptr}});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("duplicate primary key"), std::string::npos)
      << st.message();
}

TEST(RelationalSynthTest, RejectsTableWithOnlyKeyColumns) {
  data::Schema solo({data::Attribute::Numerical("id")});
  auto schema = data::RelationalSchema::Create({{"solo", solo, "id"}}, {});
  ASSERT_TRUE(schema.ok());
  data::Table t(solo);
  t.AppendRecord({1.0});
  t.AppendRecord({2.0});
  RelationalSynthesizer synth(TinyOptions(FreshDir("rel_solo")));
  const Status st = synth.Fit(schema.value(), {{&t, nullptr}});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("no non-key columns"), std::string::npos)
      << st.message();
}

TEST(RelationalSynthTest, ScaleGrowsTheRootTable) {
  const data::RelationalPair pair = MakePair();
  const std::string dir = FreshDir("rel_scale");
  RelationalSynthesizer synth(TinyOptions(dir));
  ASSERT_TRUE(synth.Fit(pair.schema, {{&pair.parent, nullptr},
                                      {&pair.child, nullptr}})
                  .ok());
  Rng rng(9);
  auto out = synth.Generate(2.0, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()[0].num_records(), 2 * pair.parent.num_records());
  auto validity = eval::FkValidityRate(out.value()[0], 0, out.value()[1], 1);
  ASSERT_TRUE(validity.ok());
  EXPECT_EQ(validity.value(), 1.0);
}

}  // namespace
}  // namespace daisy::rel
