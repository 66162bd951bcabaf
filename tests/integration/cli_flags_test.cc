// Strict flag handling through the real binaries: daisy_cli and
// daisy_serve must reject unknown flags, missing values and
// non-numeric values with a non-zero exit code and a clear stderr
// message — a typo must never be silently ignored.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/generators/realistic.h"
#include "synth/synthesizer.h"

#ifndef DAISY_CLI_BIN
#error "DAISY_CLI_BIN must point at the daisy_cli executable"
#endif
#ifndef DAISY_SERVE_BIN
#error "DAISY_SERVE_BIN must point at the daisy_serve executable"
#endif

namespace daisy {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Fork/exec a binary, capture its exit code, stdout and stderr.
RunResult RunBinary(const char* bin, const std::vector<std::string>& args) {
  RunResult result;
  // Unique per process: parallel ctest runs sibling tests concurrently.
  const std::string out_path = ::testing::TempDir() + "cli_flags_stdout_" +
                               std::to_string(getpid()) + ".txt";
  const std::string err_path = ::testing::TempDir() + "cli_flags_stderr_" +
                               std::to_string(getpid()) + ".txt";
  std::vector<std::string> full = {bin};
  full.insert(full.end(), args.begin(), args.end());
  const pid_t pid = fork();
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(full.size() + 1);
    for (std::string& s : full) argv.push_back(s.data());
    argv.push_back(nullptr);
    if (std::freopen(out_path.c_str(), "w", stdout) == nullptr) _exit(126);
    if (std::freopen(err_path.c_str(), "w", stderr) == nullptr) _exit(126);
    execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.stdout_text = ReadFile(out_path);
  result.stderr_text = ReadFile(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return result;
}

void ExpectRejected(const char* bin, const std::vector<std::string>& args,
                    const std::string& message_piece) {
  const RunResult r = RunBinary(bin, args);
  EXPECT_NE(r.exit_code, 0) << "accepted: " << args[1];
  EXPECT_NE(r.stderr_text.find(message_piece), std::string::npos)
      << "stderr was: " << r.stderr_text;
}

TEST(CliFlagsTest, UnknownFlagIsRejected) {
  ExpectRejected(DAISY_CLI_BIN,
                 {"synth", "--input", "x.csv", "--output", "y.csv",
                  "--iteratoins", "50"},
                 "unknown flag: --iteratoins");
}

TEST(CliFlagsTest, MissingValueIsRejected) {
  ExpectRejected(DAISY_CLI_BIN,
                 {"synth", "--input", "x.csv", "--output"},
                 "flag --output requires a value");
}

TEST(CliFlagsTest, NonNumericValueIsRejected) {
  ExpectRejected(DAISY_CLI_BIN,
                 {"synth", "--input", "x.csv", "--output", "y.csv",
                  "--iterations", "fifty"},
                 "flag --iterations expects an integer, got: fifty");
  ExpectRejected(DAISY_CLI_BIN,
                 {"generate", "--model", "m.daisy", "--output", "y.csv",
                  "--n", "10x"},
                 "expects an integer");
}

TEST(CliFlagsTest, DuplicateFlagIsRejected) {
  ExpectRejected(DAISY_CLI_BIN,
                 {"eval", "--real", "a.csv", "--real", "b.csv"},
                 "given more than once");
}

TEST(CliFlagsTest, PositionalArgumentIsRejected) {
  ExpectRejected(DAISY_CLI_BIN, {"synth", "stray"},
                 "unexpected positional argument: stray");
}

TEST(CliFlagsTest, UnknownCommandIsRejected) {
  const RunResult r = RunBinary(DAISY_CLI_BIN, {"frobnicate"});
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.stderr_text.find("usage"), std::string::npos);
}

TEST(CliFlagsTest, ExitCodeIsTwoForUsageErrors) {
  const RunResult r = RunBinary(DAISY_CLI_BIN, {"synth", "--bogus", "1"});
  EXPECT_EQ(r.exit_code, 2);
}

// Inputs the trainer refuses exit 1 with the reason — never a signal.
TEST(CliFlagsTest, HeaderOnlyCsvIsRefused) {
  const std::string csv = ::testing::TempDir() + "cli_header_only_" +
                          std::to_string(getpid()) + ".csv";
  std::ofstream(csv) << "a,b,label\n";
  for (const std::string label : {"", "label"}) {
    std::vector<std::string> args = {"synth", "--input", csv, "--output",
                                     csv + ".out", "--iterations", "2"};
    if (!label.empty()) args.insert(args.end(), {"--label", label});
    const RunResult r = RunBinary(DAISY_CLI_BIN, args);
    EXPECT_EQ(r.exit_code, 1) << "label '" << label << "'";
    EXPECT_NE(r.stderr_text.find("empty table"), std::string::npos)
        << "stderr was: " << r.stderr_text;
  }
  std::remove(csv.c_str());
}

// A model saved from a parent-conditioned fit (a relational child
// table's) needs parent rows to generate; `generate` says so.
TEST(CliFlagsTest, GenerateRefusesParentConditionedModel) {
  Rng rng(3);
  const data::Table train = data::MakeAdultSim(120, &rng);
  synth::GanOptions opts;
  opts.iterations = 3;
  opts.batch_size = 16;
  opts.g_hidden = {16};
  opts.d_hidden = {16};
  opts.noise_dim = 4;
  synth::TableSynthesizer child(opts, {});
  ASSERT_TRUE(
      child.FitConditioned(train, Matrix::Randn(train.num_records(), 3, &rng))
          .ok());
  const std::string model = ::testing::TempDir() + "cli_parent_model_" +
                            std::to_string(getpid()) + ".daisy";
  ASSERT_TRUE(child.Save(model).ok());
  const RunResult r =
      RunBinary(DAISY_CLI_BIN, {"generate", "--model", model, "--output",
                                model + ".csv", "--n", "5"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.stderr_text.find("parent-conditioned"), std::string::npos)
      << "stderr was: " << r.stderr_text;
  std::remove(model.c_str());
}

// A checkpoint directory that does not fit the run is refused before
// training: exit 1 and no --output — never rows from untrained weights.
// `writer` fills the directory, `reader` is refused by it.
void ExpectResumeRefused(const std::string& writer,
                         const std::string& reader) {
  const std::string dir = ::testing::TempDir() + "cli_refused_" + writer +
                          "_" + reader + "_" + std::to_string(getpid());
  Rng rng(5);
  const std::string csv = dir + ".csv";
  ASSERT_TRUE(data::WriteCsv(data::MakeAdultSim(120, &rng), csv).ok());
  const auto synth = [&](const std::string& method, const std::string& out,
                         bool resume) {
    std::vector<std::string> args = {
        "synth", "--input", csv, "--output", out, "--method", method,
        "--iterations", "4", "--checkpoint-every", "2", "--checkpoint-dir",
        dir};
    if (resume) args.push_back("--resume");
    return RunBinary(DAISY_CLI_BIN, args);
  };
  ASSERT_EQ(synth(writer, dir + ".first.csv", false).exit_code, 0);
  const std::string out = dir + ".out.csv";
  const RunResult r = synth(reader, out, true);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.stderr_text.find("cannot train"), std::string::npos)
      << "stderr was: " << r.stderr_text;
  EXPECT_FALSE(std::ifstream(out).good()) << "refused run wrote " << out;
  std::filesystem::remove_all(dir);
  for (const std::string& f : {csv, dir + ".first.csv", out})
    std::remove(f.c_str());
}

TEST(CliFlagsTest, GanRefusesAVaeCheckpointDir) {
  ExpectResumeRefused("vae", "gan");
}

TEST(CliFlagsTest, VaeRefusesAGanCheckpointDir) {
  ExpectResumeRefused("gan", "vae");
}

TEST(CliFlagsTest, MedGanRefusesAGanCheckpointDir) {
  ExpectResumeRefused("gan", "medgan");
}

// Telemetry the logger cannot write fails the run.
TEST(CliFlagsTest, LostTelemetryExitsOne) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full is not available";
  std::fclose(probe);
  Rng rng(5);
  const std::string csv = ::testing::TempDir() + "cli_full_" +
                          std::to_string(getpid()) + ".csv";
  ASSERT_TRUE(data::WriteCsv(data::MakeAdultSim(120, &rng), csv).ok());
  const RunResult r = RunBinary(
      DAISY_CLI_BIN, {"synth", "--input", csv, "--output", csv + ".out",
                      "--iterations", "2", "--log-jsonl", "/dev/full"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.stderr_text.find("telemetry lost"), std::string::npos)
      << "stderr was: " << r.stderr_text;
  std::remove(csv.c_str());
  std::remove((csv + ".out").c_str());
}

// `eval --report` renders the suite run it printed: every metric line
// on stdout appears in the markdown with the same 4-decimal value.
TEST(CliFlagsTest, EvalReportRendersEveryPrintedMetric) {
  Rng rng(7);
  const std::string base = ::testing::TempDir() + "cli_report_" +
                           std::to_string(getpid());
  ASSERT_TRUE(data::WriteCsv(data::MakeAdultSim(300, &rng), base + ".real.csv")
                  .ok());
  ASSERT_TRUE(data::WriteCsv(data::MakeAdultSim(300, &rng), base + ".syn.csv")
                  .ok());
  const RunResult r = RunBinary(
      DAISY_CLI_BIN, {"eval", "--real", base + ".real.csv", "--synthetic",
                      base + ".syn.csv", "--label", "label", "--report",
                      base + ".md"});
  ASSERT_EQ(r.exit_code, 0) << "stderr was: " << r.stderr_text;
  const std::string report = ReadFile(base + ".md");
  ASSERT_NE(report.find("# Synthetic data quality report"), std::string::npos);

  std::istringstream lines(r.stdout_text);
  std::string line;
  size_t checked = 0;
  while (std::getline(lines, line)) {
    char name[128];
    double value = 0.0;
    if (line.find(" ms)") == std::string::npos ||
        std::sscanf(line.c_str(), " %127s %lf", name, &value) != 2)
      continue;
    char printed[32];
    std::snprintf(printed, sizeof(printed), "%.4f", value);
    // A utility metric is a cell of its classifier's row; every other
    // metric is a line that names it.
    const std::string metric = name;
    const std::string key =
        metric.starts_with("utility.")
            ? "| " + metric.substr(metric.rfind('.') + 1) + " |"
            : "(`" + metric + "`)";
    const size_t at = report.find(key);
    ASSERT_NE(at, std::string::npos) << metric << " missing from the report";
    const size_t begin = report.rfind('\n', at) + 1;  // npos + 1 == 0
    const std::string row =
        report.substr(begin, report.find('\n', at) - begin);
    EXPECT_NE(row.find(printed), std::string::npos)
        << metric << " = " << printed << " not in: " << row;
    ++checked;
  }
  EXPECT_GE(checked, 10u) << "stdout was: " << r.stdout_text;
  for (const std::string ext : {".real.csv", ".syn.csv", ".md"})
    std::remove((base + ext).c_str());
}

// A report that cannot be written fails the run with the reason.
TEST(CliFlagsTest, EvalReportInMissingDirectoryExitsOne) {
  Rng rng(8);
  const std::string base = ::testing::TempDir() + "cli_report_missing_" +
                           std::to_string(getpid());
  ASSERT_TRUE(data::WriteCsv(data::MakeAdultSim(120, &rng), base + ".csv")
                  .ok());
  const RunResult r = RunBinary(
      DAISY_CLI_BIN, {"eval", "--real", base + ".csv", "--synthetic",
                      base + ".csv", "--report", base + ".no_dir/report.md"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.stderr_text.find("cannot write report"), std::string::npos)
      << "stderr was: " << r.stderr_text;
  std::remove((base + ".csv").c_str());
}

TEST(ServeFlagsTest, UnknownFlagIsRejected) {
  ExpectRejected(DAISY_SERVE_BIN, {"--sokcet", "/tmp/x.sock"},
                 "unknown flag: --sokcet");
}

TEST(ServeFlagsTest, MissingRequiredFlagsShowUsage) {
  const RunResult r = RunBinary(DAISY_SERVE_BIN, {});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("usage"), std::string::npos);
}

TEST(ServeFlagsTest, NonNumericChunkRowsIsRejected) {
  ExpectRejected(DAISY_SERVE_BIN,
                 {"--socket", "/tmp/x.sock", "--model", "a=m.daisy",
                  "--chunk-rows", "big"},
                 "flag --chunk-rows expects an integer, got: big");
}

TEST(ServeFlagsTest, NonPositiveChunkRowsIsRejected) {
  ExpectRejected(DAISY_SERVE_BIN,
                 {"--socket", "/tmp/x.sock", "--model", "a=m.daisy",
                  "--chunk-rows", "0"},
                 "must be positive");
}

TEST(ServeFlagsTest, BadModelSpecIsRejected) {
  ExpectRejected(DAISY_SERVE_BIN,
                 {"--socket", "/tmp/x.sock", "--model", "no-equals-here"},
                 "bad --model spec");
}

TEST(ServeFlagsTest, MissingModelFileFailsCleanly) {
  const RunResult r = RunBinary(DAISY_SERVE_BIN,
                          {"--socket", "/tmp/daisy_cli_flags_test.sock",
                           "--model", "a=/nonexistent/model.daisy"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_FALSE(r.stderr_text.empty());
}

}  // namespace
}  // namespace daisy
