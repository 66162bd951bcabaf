#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/run_logger.h"
#include "obs/sentinel.h"
#include "obs/timer.h"

namespace daisy::obs {
namespace {

MetricRecord SampleRecord() {
  MetricRecord rec;
  rec.run = "gan.wtrain";
  rec.iter = 42;
  rec.d_loss = -0.125;
  rec.g_loss = 1.0 / 3.0;  // not exactly representable in decimal
  rec.g_grad_norm = 2.5;
  rec.d_grad_norm = 0.75;
  rec.param_norm = 21.0625;
  rec.value = 0.8125;
  rec.iter_ms = 12.5;
  rec.wall_ms = 525.25;
  rec.threads = 4;
  rec.seed = 0xDEADBEEFCAFEull;
  return rec;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---- JSONL serialization -------------------------------------------

TEST(RunLoggerTest, JsonLineRoundTripsExactly) {
  const MetricRecord rec = SampleRecord();
  const std::string line = ToJsonLine(rec);
  ASSERT_EQ(line.find('\n'), std::string::npos);

  auto parsed = ParseJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const MetricRecord& back = parsed.value();
  EXPECT_EQ(back.run, rec.run);
  EXPECT_EQ(back.iter, rec.iter);
  EXPECT_DOUBLE_EQ(back.d_loss, rec.d_loss);
  EXPECT_DOUBLE_EQ(back.g_loss, rec.g_loss);
  EXPECT_DOUBLE_EQ(back.g_grad_norm, rec.g_grad_norm);
  EXPECT_DOUBLE_EQ(back.d_grad_norm, rec.d_grad_norm);
  EXPECT_DOUBLE_EQ(back.param_norm, rec.param_norm);
  EXPECT_DOUBLE_EQ(back.value, rec.value);
  EXPECT_DOUBLE_EQ(back.iter_ms, rec.iter_ms);
  EXPECT_DOUBLE_EQ(back.wall_ms, rec.wall_ms);
  EXPECT_EQ(back.threads, rec.threads);
  EXPECT_EQ(back.seed, rec.seed);
}

TEST(RunLoggerTest, IntegerFieldsRoundTripBeyondDoublePrecision) {
  // iter/threads/seed are emitted as decimal integers, not through
  // %.17g doubles — a seed above 2^53 must come back bit-exact.
  MetricRecord rec = SampleRecord();
  rec.seed = (1ull << 53) + 1;  // not representable as a double
  rec.iter = (1ull << 40) + 3;
  const std::string line = ToJsonLine(rec);
  // Emitted as plain decimal digits, not rounded or scientific.
  EXPECT_NE(line.find("\"seed\":9007199254740993"), std::string::npos)
      << line;
  auto parsed = ParseJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().seed, (1ull << 53) + 1);
  EXPECT_EQ(parsed.value().iter, (1ull << 40) + 3);

  rec.seed = 0xFFFFFFFFFFFFFFFFull;  // uint64 max
  auto parsed_max = ParseJsonLine(ToJsonLine(rec));
  ASSERT_TRUE(parsed_max.ok()) << parsed_max.status().ToString();
  EXPECT_EQ(parsed_max.value().seed, 0xFFFFFFFFFFFFFFFFull);
}

TEST(RunLoggerTest, ControlCharactersInRunTagStayOneLine) {
  MetricRecord rec = SampleRecord();
  rec.run = "tag with\nnewline\ttab \x01 and \"quotes\"";
  const std::string line = ToJsonLine(rec);
  // Framing: escaping must keep the record on a single line.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find('\t'), std::string::npos);
  EXPECT_EQ(line.find('\x01'), std::string::npos);

  auto parsed = ParseJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().run, rec.run);
}

TEST(RunLoggerTest, NonFiniteValuesSerializeAsNull) {
  MetricRecord rec = SampleRecord();
  rec.d_loss = std::numeric_limits<double>::quiet_NaN();
  rec.g_loss = std::numeric_limits<double>::infinity();
  const std::string line = ToJsonLine(rec);
  // JSON has no NaN/Infinity literals; both must come out as null.
  EXPECT_EQ(line.find("nan"), std::string::npos);
  EXPECT_EQ(line.find("inf"), std::string::npos);
  EXPECT_NE(line.find("\"d_loss\":null"), std::string::npos);
  EXPECT_NE(line.find("\"g_loss\":null"), std::string::npos);

  auto parsed = ParseJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(std::isnan(parsed.value().d_loss));
  EXPECT_TRUE(std::isnan(parsed.value().g_loss));
  EXPECT_DOUBLE_EQ(parsed.value().g_grad_norm, rec.g_grad_norm);
}

TEST(RunLoggerTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ParseJsonLine("").ok());
  EXPECT_FALSE(ParseJsonLine("not json").ok());
  EXPECT_FALSE(ParseJsonLine("{\"iter\":").ok());
  EXPECT_FALSE(ParseJsonLine("{\"iter\":1").ok());  // missing brace
}

TEST(RunLoggerTest, ParseIgnoresUnknownKeys) {
  auto parsed =
      ParseJsonLine("{\"iter\":7,\"future_field\":\"x\",\"g_loss\":1.5}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().iter, 7u);
  EXPECT_DOUBLE_EQ(parsed.value().g_loss, 1.5);
}

// A newer writer may add keys of any JSON type; the reader skips them
// and keeps every field it knows.
TEST(RunLoggerTest, ParseSkipsUnknownKeysOfEveryType) {
  const std::string line = ToJsonLine(SampleRecord());
  const std::string extended =
      line.substr(0, line.size() - 1) +
      ",\"future\":{\"a\":[1,{\"b\":null}],\"c\":\"\\u0041\"}"
      ",\"list\":[true,false,null,-2.5e3,\"x\"],\"flag\":true"
      ",\"off\":false,\"gone\":null}";
  auto parsed = ParseJsonLine(extended);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto plain = ParseJsonLine(line);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(parsed.value().run, plain.value().run);
  EXPECT_EQ(parsed.value().iter, plain.value().iter);
  EXPECT_EQ(parsed.value().seed, plain.value().seed);
  EXPECT_EQ(parsed.value().threads, plain.value().threads);
  EXPECT_EQ(parsed.value().g_loss, plain.value().g_loss);
  EXPECT_EQ(parsed.value().wall_ms, plain.value().wall_ms);
}

// Integer fields take decimal digits only; a sign, fraction, exponent
// or a value past uint64 is refused rather than rounded.
TEST(RunLoggerTest, ParseRefusesNonDigitIntegers) {
  for (const char* bad : {"-1", "1.5", "1e3", "18446744073709551616",
                          "\"7\"", "null", "true"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(
        ParseJsonLine(std::string("{\"seed\":") + bad + "}").ok());
  }
  auto max = ParseJsonLine("{\"seed\":18446744073709551615}");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.value().seed, 18446744073709551615ull);
}

// ---- RunLogger file sink -------------------------------------------

TEST(RunLoggerTest, WritesReadableJsonlFile) {
  const std::string path = TempPath("obs_run_logger_test.jsonl");
  {
    auto opened = RunLogger::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    RunLogger& logger = *opened.value();
    for (size_t i = 1; i <= 3; ++i) {
      MetricRecord rec = SampleRecord();
      rec.iter = i;
      logger.Log(rec);
    }
    EXPECT_EQ(logger.lines_written(), 3u);
    EXPECT_EQ(logger.path(), path);
    EXPECT_TRUE(logger.Flush().ok());
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t count = 0;
  while (std::getline(in, line)) {
    auto parsed = ParseJsonLine(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ++count;
    EXPECT_EQ(parsed.value().iter, count);
    EXPECT_EQ(parsed.value().run, "gan.wtrain");
  }
  EXPECT_EQ(count, 3u);
  std::remove(path.c_str());
}

TEST(RunLoggerTest, OpenFailsOnUnwritablePath) {
  auto opened = RunLogger::Open("/nonexistent-dir/daisy.jsonl");
  EXPECT_FALSE(opened.ok());
}

// Every write to /dev/full fails. Log swallows the error, so Flush must
// report it even when its own fflush has nothing left to push.
TEST(RunLoggerTest, FlushReportsRecordsLostToAFullDevice) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full is not available";
  std::fclose(probe);
  auto opened = RunLogger::Open("/dev/full");
  ASSERT_TRUE(opened.ok());
  MetricRecord rec;
  rec.run = "gan.vtrain";
  rec.iter = 1;
  opened.value()->Log(rec);
  EXPECT_FALSE(opened.value()->Flush().ok());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Iterations of every line in a JSONL log, in file order.
std::vector<uint64_t> LoggedIters(const std::string& path) {
  std::ifstream in(path);
  std::vector<uint64_t> iters;
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = ParseJsonLine(line);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (parsed.ok()) iters.push_back(parsed.value().iter);
  }
  return iters;
}

TEST(RunLoggerTest, OpenForResumeKeepsCompleteLinesAndAppends) {
  const std::string path = TempPath("daisy_resume_keep.jsonl");
  MetricRecord rec = SampleRecord();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (uint64_t i = 1; i <= 2; ++i) {
      rec.iter = i;
      out << ToJsonLine(rec) << "\n";
    }
    out << "{\"run\":\"gan.wt";  // a writer killed mid-record
  }
  {
    auto opened = RunLogger::OpenForResume(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened.value()->records_logged(), 2u);
    rec.iter = 3;
    opened.value()->Log(rec);
  }
  EXPECT_EQ(LoggedIters(path), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(RunLoggerTest, OpenForResumeOnMissingLogStartsEmpty) {
  const std::string path = TempPath("daisy_resume_missing.jsonl");
  std::remove(path.c_str());
  {
    auto opened = RunLogger::OpenForResume(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened.value()->records_logged(), 0u);
  }
  EXPECT_EQ(ReadAll(path), "");
  std::remove(path.c_str());
}

TEST(RunLoggerTest, ResumeAtTrimsToTheCursorThenAppends) {
  const std::string path = TempPath("daisy_resume_at.jsonl");
  {
    auto opened = RunLogger::Open(path);
    ASSERT_TRUE(opened.ok());
    RunLogger& logger = *opened.value();
    MetricRecord rec = SampleRecord();
    for (uint64_t i = 1; i <= 5; ++i) {
      rec.iter = i;
      logger.Log(rec);
    }
    ASSERT_TRUE(logger.ResumeAt(2).ok());
    EXPECT_EQ(logger.records_logged(), 2u);
    rec.iter = 3;
    logger.Log(rec);
  }
  EXPECT_EQ(LoggedIters(path), (std::vector<uint64_t>{1, 2, 3}));
  std::remove(path.c_str());
}

// ---- MemorySink -----------------------------------------------------

TEST(MemorySinkTest, KeepsRecordsInOrder) {
  MemorySink sink;
  for (size_t i = 1; i <= 5; ++i) {
    MetricRecord rec;
    rec.iter = i;
    sink.Log(rec);
  }
  EXPECT_TRUE(sink.Flush().ok());
  ASSERT_EQ(sink.records().size(), 5u);
  EXPECT_EQ(sink.records().front().iter, 1u);
  EXPECT_EQ(sink.records().back().iter, 5u);
}

// ---- Divergence sentinel -------------------------------------------

TEST(SentinelTest, HealthyRecordPasses) {
  DivergenceSentinel sentinel;
  EXPECT_TRUE(sentinel.Check(SampleRecord()).ok());
}

TEST(SentinelTest, TripsOnNanLoss) {
  DivergenceSentinel sentinel;
  MetricRecord rec = SampleRecord();
  rec.d_loss = std::numeric_limits<double>::quiet_NaN();
  const Status st = sentinel.Check(rec);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kFailedPrecondition);
  // Message names the iteration and the offending metric.
  EXPECT_NE(st.ToString().find("iteration 42"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("d_loss"), std::string::npos)
      << st.ToString();
}

TEST(SentinelTest, TripsOnInfiniteGradNorm) {
  DivergenceSentinel sentinel;
  MetricRecord rec = SampleRecord();
  rec.g_grad_norm = std::numeric_limits<double>::infinity();
  const Status st = sentinel.Check(rec);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("g_grad_norm"), std::string::npos)
      << st.ToString();
}

TEST(SentinelTest, TripsOnExplodedLoss) {
  SentinelOptions opts;
  opts.loss_limit = 10.0;
  DivergenceSentinel sentinel(opts);
  MetricRecord rec = SampleRecord();
  rec.g_loss = -11.0;  // magnitude counts, sign does not (W losses)
  const Status st = sentinel.Check(rec);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("g_loss"), std::string::npos)
      << st.ToString();
}

TEST(SentinelTest, TripsOnExplodedGradAndParamNorms) {
  SentinelOptions opts;
  opts.grad_limit = 5.0;
  opts.param_limit = 50.0;
  DivergenceSentinel sentinel(opts);

  MetricRecord rec = SampleRecord();
  rec.d_grad_norm = 6.0;
  EXPECT_FALSE(sentinel.Check(rec).ok());

  rec = SampleRecord();
  rec.param_norm = 51.0;
  EXPECT_FALSE(sentinel.Check(rec).ok());
}

TEST(SentinelTest, DisabledSentinelPassesEverything) {
  SentinelOptions opts;
  opts.enabled = false;
  DivergenceSentinel sentinel(opts);
  MetricRecord rec = SampleRecord();
  rec.d_loss = std::numeric_limits<double>::quiet_NaN();
  rec.g_grad_norm = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(sentinel.Check(rec).ok());
}

// ---- Timers ---------------------------------------------------------

TEST(TimerTest, WallTimerIsMonotonic) {
  WallTimer timer;
  const double a = timer.ElapsedMs();
  const double b = timer.ElapsedMs();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  timer.Reset();
  EXPECT_GE(timer.ElapsedMs(), 0.0);
}

TEST(TimerTest, ScopedTimerAccumulates) {
  double total = 0.0;
  { ScopedTimerMs t(&total); }
  const double first = total;
  EXPECT_GE(first, 0.0);
  { ScopedTimerMs t(&total); }
  EXPECT_GE(total, first);  // adds, never overwrites
}

}  // namespace
}  // namespace daisy::obs
