// Tests for the durable-file layer: hash known-answer vectors, the
// checksum trailer, whole-file reads, and the atomic write protocol
// (no temp file survives an abandoned or failed write).
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/durable.h"

namespace daisy {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(DurableTest, Fnv1a64KnownAnswers) {
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
}

TEST(DurableTest, Crc32KnownAnswer) {
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
}

TEST(DurableTest, TrailerRoundTripsAndCatchesFlipsAndCuts) {
  const std::string payload = "daisy-test\n42\n";
  std::string bytes = payload;
  AppendChecksumTrailer(&bytes);
  char want[32];
  std::snprintf(want, sizeof(want), "checksum %016llx\n",
                static_cast<unsigned long long>(
                    Fnv1a64(payload.data(), payload.size())));
  EXPECT_EQ(bytes.substr(payload.size()), want);
  auto len = VerifyChecksumTrailer(bytes, "test");
  ASSERT_TRUE(len.ok()) << len.status().ToString();
  EXPECT_EQ(len.value(), payload.size());

  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x10);
    auto r = VerifyChecksumTrailer(flipped, "test");
    ASSERT_FALSE(r.ok()) << "flip at byte " << i << " went undetected";
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(r.status().message().rfind("test ", 0), 0u);
  }
  for (size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_FALSE(VerifyChecksumTrailer(bytes.substr(0, cut), "test").ok())
        << "truncation to " << cut << " went undetected";
}

TEST(DurableTest, ReadFileMissingIsNotFound) {
  auto r = ReadFile(FreshDir("durable_missing") + "/absent");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

TEST(DurableTest, DroppedWithoutCommitLeavesNothing) {
  const std::string path = FreshDir("durable_dropped") + "/f";
  {
    AtomicFile file;
    ASSERT_TRUE(file.Open(path).ok());
    ASSERT_TRUE(file.Write("partial", 7).ok());
    EXPECT_TRUE(fs::exists(path + ".tmp"));
  }
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_FALSE(fs::exists(path));
}

TEST(DurableTest, FailedRenameIsIOErrorAndRemovesTemp) {
  const std::string dir = FreshDir("durable_rename");
  const std::string path = dir + "/target";
  fs::create_directories(fs::path(path) / "occupied");
  const Status st = WriteFileAtomic(path, "bytes");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kIOError);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_TRUE(fs::is_directory(path));
}

TEST(DurableTest, OverwriteYieldsExactlyTheNewBytes) {
  const std::string path = FreshDir("durable_overwrite") + "/f";
  ASSERT_TRUE(WriteFileAtomic(path, std::string(1000, 'x')).ok());
  const std::string next("short\0bytes", 11);
  ASSERT_TRUE(WriteFileAtomic(path, next).ok());
  auto r = ReadFile(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), next);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(DurableTest, SeekRewritesInPlace) {
  const std::string path = FreshDir("durable_seek") + "/f";
  AtomicFile file;
  ASSERT_TRUE(file.Open(path).ok());
  ASSERT_TRUE(file.Write("0000body", 8).ok());
  ASSERT_TRUE(file.Seek(0).ok());
  ASSERT_TRUE(file.Write("head", 4).ok());
  ASSERT_TRUE(file.Commit().ok());
  EXPECT_FALSE(file.is_open());
  auto r = ReadFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "headbody");
}

}  // namespace
}  // namespace daisy
