// Tests for the relational bundle container: full-fidelity round-trips
// (binary model blobs, NaN/inf encoder stats), the checksum trailer's
// corruption guarantees (exhaustive single-byte-flip and truncation
// sweeps, mirroring tests/ckpt/checkpoint_test.cc), and the atomic
// file protocol.
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/durable.h"
#include "relational/bundle.h"

namespace daisy::rel {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

RelationalBundle MakeSample() {
  RelationalBundle b;

  BundleTable users;
  users.name = "users";
  users.schema = data::Schema({data::Attribute::Numerical("user_id"),
                               data::Attribute::Categorical("segment",
                                                            {"a", "b", "c"}),
                               data::Attribute::Numerical("budget")});
  users.primary_key = "user_id";
  users.real_rows = 120;
  users.kept_cols = {1, 2};
  users.model_blob = std::string("\0binary\nmodel blob\0 with bytes", 30);
  b.tables.push_back(std::move(users));

  BundleTable orders;
  orders.name = "orders";
  orders.schema = data::Schema({data::Attribute::Numerical("order_id"),
                                data::Attribute::Numerical("user_id"),
                                data::Attribute::Numerical("amount")});
  orders.primary_key = "order_id";
  orders.has_parent = true;
  orders.fk_column = "user_id";
  orders.fk_parent_table = "users";
  orders.fk_parent_column = "user_id";
  orders.real_rows = 300;
  orders.kept_cols = {2};
  orders.model_blob = "plain text blob";
  orders.cardinality = CardinalityModel::Fit({0, 1, 1, 3}).value();
  // Encoder stats may legitimately be extreme; the container must not
  // mangle them.
  orders.encoder = ParentCondEncoder::Build(
      data::Schema({data::Attribute::Categorical("segment", {"a", "b", "c"}),
                    data::Attribute::Numerical("budget")}),
      {0.0, -std::numeric_limits<double>::infinity()},
      {0.0, std::numeric_limits<double>::max()});
  b.tables.push_back(std::move(orders));
  return b;
}

TEST(BundleTest, RoundTripPreservesEveryField) {
  const RelationalBundle b = MakeSample();
  auto parsed = ParseBundle(SerializeBundle(b));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const RelationalBundle& r = parsed.value();
  ASSERT_EQ(r.tables.size(), 2u);

  const BundleTable& u = r.tables[0];
  EXPECT_EQ(u.name, "users");
  EXPECT_EQ(u.primary_key, "user_id");
  EXPECT_FALSE(u.has_parent);
  EXPECT_EQ(u.real_rows, 120u);
  EXPECT_EQ(u.kept_cols, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(u.model_blob, b.tables[0].model_blob);
  ASSERT_EQ(u.schema.num_attributes(), 3u);
  EXPECT_EQ(u.schema.attribute(1).name, "segment");
  EXPECT_EQ(u.schema.attribute(1).categories,
            (std::vector<std::string>{"a", "b", "c"}));

  const BundleTable& o = r.tables[1];
  EXPECT_TRUE(o.has_parent);
  EXPECT_EQ(o.fk_column, "user_id");
  EXPECT_EQ(o.fk_parent_table, "users");
  EXPECT_EQ(o.fk_parent_column, "user_id");
  EXPECT_EQ(o.cardinality.weights(), b.tables[1].cardinality.weights());
  ASSERT_EQ(o.encoder.cond_dim(), b.tables[1].encoder.cond_dim());
  ASSERT_EQ(o.encoder.features().size(), 2u);
  EXPECT_TRUE(std::isinf(o.encoder.features()[1].v_min));
  EXPECT_EQ(o.encoder.features()[1].v_max,
            std::numeric_limits<double>::max());
}

TEST(BundleTest, EveryByteFlipIsDetected) {
  std::string bytes = SerializeBundle(MakeSample());
  ASSERT_TRUE(ParseBundle(bytes).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    const char orig = bytes[i];
    bytes[i] = static_cast<char>(orig ^ 0x01);
    auto parsed = ParseBundle(bytes);
    EXPECT_FALSE(parsed.ok()) << "flip at byte " << i << " went undetected";
    bytes[i] = orig;
  }
}

TEST(BundleTest, EveryTruncationIsDetected) {
  const std::string bytes = SerializeBundle(MakeSample());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto parsed = ParseBundle(bytes.substr(0, cut));
    EXPECT_FALSE(parsed.ok()) << "truncation to " << cut
                              << " bytes went undetected";
    EXPECT_FALSE(parsed.status().message().empty());
  }
}

TEST(BundleTest, SaveLoadFileRoundTrip) {
  const std::string dir = FreshDir("relbundle_rt");
  const std::string path = dir + "/db.daisyrel";
  const RelationalBundle b = MakeSample();
  ASSERT_TRUE(SaveBundle(b, path).ok());
  // The atomic protocol must not leave its temp file behind.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  auto loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().tables.size(), 2u);
  EXPECT_EQ(loaded.value().tables[0].model_blob, b.tables[0].model_blob);

  // Overwriting goes through the same rename.
  RelationalBundle b2 = b;
  b2.tables[0].real_rows = 121;
  ASSERT_TRUE(SaveBundle(b2, path).ok());
  auto reloaded = LoadBundle(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().tables[0].real_rows, 121u);
}

TEST(BundleTest, LoadMissingFileIsNotFound) {
  auto missing = LoadBundle(FreshDir("relbundle_missing") + "/nope.daisyrel");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
}

TEST(BundleTest, RejectsWrongLeadingTag) {
  // Forge a valid-checksum payload with a foreign tag: the version
  // gate, not the checksum, must reject it.
  std::string bytes = SerializeBundle(MakeSample());
  ASSERT_EQ(bytes.rfind("daisy-relbundle-v1", 0), 0u);
  bytes.replace(0, std::string("daisy-relbundle-v1").size(),
                "daisy-relbundle-v9");
  // Recompute the trailer over the altered payload.
  const size_t trailer_len = std::string("checksum ").size() + 16 + 1;
  const std::string payload =
      bytes.substr(0, bytes.size() - trailer_len);
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "checksum %016llx\n",
                static_cast<unsigned long long>(
                    Fnv1a64(payload.data(), payload.size())));
  auto parsed = ParseBundle(payload + trailer);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace daisy::rel
