// Serving subsystem tests: protocol parsing, registry loading
// (including corrupt-checkpoint rejection), the engine's
// concurrent-request determinism contract, graceful-shutdown drain,
// and the socket server end to end over a real AF_UNIX connection
// (including the --max-rows cap and accept() hitting EMFILE).
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <memory>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "data/csv.h"
#include "data/generators/realistic.h"
#include "serve/csv_stream.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "synth/synthesizer.h"

namespace daisy::serve {
namespace {

namespace fs = std::filesystem;

// Unique per process: ctest runs each test in its own process, many in
// parallel, so a fixed path would be clobbered by sibling tests.
std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

synth::GanOptions FastOptions(std::vector<size_t> hidden = {32}) {
  synth::GanOptions opts;
  opts.conditional = true;
  opts.iterations = 25;
  opts.batch_size = 32;
  opts.g_hidden = std::move(hidden);
  opts.d_hidden = {32};
  opts.noise_dim = 8;
  opts.snapshots = 1;
  return opts;
}

// One small trained model persisted once for the whole suite;
// `checkpoint_dir` gets a real training checkpoint for overlay tests.
struct SharedModel {
  std::string model_path;
  std::string checkpoint_dir;
};

const SharedModel& TrainedModel() {
  static const SharedModel* shared = [] {
    auto* s = new SharedModel();
    const std::string dir = FreshDir("serve_shared_model");
    s->model_path = dir + "/model.daisy";
    s->checkpoint_dir = dir + "/ckpt";
    Rng rng(31);
    const data::Table train = data::MakeAdultSim(250, &rng);
    synth::GanOptions opts = FastOptions();
    opts.checkpoint_every = 10;
    opts.checkpoint_dir = s->checkpoint_dir;
    opts.checkpoint_keep = 1;
    synth::TableSynthesizer model(opts, transform::TransformOptions{});
    EXPECT_TRUE(model.Fit(train).ok());
    EXPECT_TRUE(model.Save(s->model_path).ok());
    return s;
  }();
  return *shared;
}

// ---------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, ParsesEveryVerb) {
  auto gen = ParseRequest("GEN adult 500 42");
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen.value().kind, Request::Kind::kGen);
  EXPECT_EQ(gen.value().model, "adult");
  EXPECT_EQ(gen.value().rows, 500u);
  EXPECT_EQ(gen.value().seed, 42u);
  EXPECT_EQ(ParseRequest("LIST").value().kind, Request::Kind::kList);
  EXPECT_EQ(ParseRequest("PING").value().kind, Request::Kind::kPing);
  EXPECT_EQ(ParseRequest("SHUTDOWN").value().kind,
            Request::Kind::kShutdown);
}

TEST(ProtocolTest, RejectsMalformedLines) {
  for (const char* bad :
       {"", "NOPE", "GEN", "GEN adult", "GEN adult 5", "GEN adult five 1",
        "GEN adult 5 -1", "GEN adult -5 1", "GEN adult 5 1 extra",
        "LIST extra", "PING 1", "GEN adult 99999999999999999999 1"}) {
    auto parsed = ParseRequest(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
    EXPECT_FALSE(parsed.status().message().empty());
  }
}

// ---------------------------------------------------------------------
// CSV streaming

TEST(CsvStreamTest, MatchesWriteCsvBytes) {
  auto loaded = synth::TableSynthesizer::Load(TrainedModel().model_path);
  ASSERT_TRUE(loaded.ok());
  Rng rng(7);
  const data::Table t = loaded.value()->Generate(20, &rng);

  const std::string path =
      FreshDir("serve_csv_stream") + "/out.csv";
  ASSERT_TRUE(data::WriteCsv(t, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream file_bytes;
  file_bytes << in.rdbuf();

  EXPECT_EQ(CsvHeader(t.schema()) + CsvRows(t), file_bytes.str());
}

// ---------------------------------------------------------------------
// Registry

TEST(RegistryTest, LoadsAndRejectsDuplicatesAndMissing) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("adult", TrainedModel().model_path).ok());
  EXPECT_NE(registry.Find("adult"), nullptr);
  EXPECT_EQ(registry.Find("nosuch"), nullptr);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"adult"});

  EXPECT_FALSE(registry.Load("adult", TrainedModel().model_path).ok());
  EXPECT_FALSE(registry.Load("", TrainedModel().model_path).ok());
  auto missing = registry.Load("m2", "/nonexistent/model.daisy");
  EXPECT_FALSE(missing.ok());
}

TEST(RegistryTest, OverlaysValidCheckpoint) {
  ModelRegistry registry;
  ASSERT_TRUE(registry
                  .Load("adult", TrainedModel().model_path,
                        TrainedModel().checkpoint_dir)
                  .ok());
  EXPECT_NE(registry.Find("adult"), nullptr);
}

TEST(RegistryTest, RejectsCorruptCheckpointAtLoad) {
  // Copy the valid checkpoint dir, then corrupt its single file by
  // byte flips and truncations — every damaged variant must be
  // rejected at registry load (the PR 5 flip/truncation harness,
  // applied at the serving boundary).
  const std::string src_dir = TrainedModel().checkpoint_dir;
  std::string src_file;
  for (const auto& e : fs::directory_iterator(src_dir))
    src_file = e.path().string();
  ASSERT_FALSE(src_file.empty());
  std::ifstream in(src_file, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  const std::string valid = os.str();

  const std::string dir = FreshDir("serve_corrupt_ckpt");
  const std::string file = dir + "/" + fs::path(src_file).filename().string();
  const auto write_file = [&](const std::string& bytes) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  for (const size_t pos :
       {size_t{0}, valid.size() / 3, valid.size() / 2, valid.size() - 1}) {
    std::string flipped = valid;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x01);
    write_file(flipped);
    ModelRegistry registry;
    auto st = registry.Load("adult", TrainedModel().model_path, dir);
    EXPECT_FALSE(st.ok()) << "flip at byte " << pos << " went undetected";
    EXPECT_EQ(registry.Find("adult"), nullptr);
  }
  for (const size_t cut : {size_t{0}, valid.size() / 2, valid.size() - 1}) {
    write_file(valid.substr(0, cut));
    ModelRegistry registry;
    auto st = registry.Load("adult", TrainedModel().model_path, dir);
    EXPECT_FALSE(st.ok()) << "truncation to " << cut << " went undetected";
  }

  // Control: the undamaged bytes load fine.
  write_file(valid);
  ModelRegistry registry;
  EXPECT_TRUE(registry.Load("adult", TrainedModel().model_path, dir).ok());
}

TEST(RegistryTest, RejectsCorruptModelAtLoad) {
  // The same flips and cuts as RejectsCorruptCheckpointAtLoad, applied
  // to the served model file itself: every damaged variant is refused
  // with a Status by its checksum trailer.
  std::ifstream in(TrainedModel().model_path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  const std::string valid = os.str();
  const std::string file = FreshDir("serve_corrupt_model") + "/model.daisy";
  const auto write_file = [&](const std::string& bytes) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  for (const size_t pos :
       {size_t{0}, valid.size() / 3, valid.size() / 2, valid.size() - 1}) {
    std::string flipped = valid;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x01);
    write_file(flipped);
    ModelRegistry registry;
    auto st = registry.Load("adult", file);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument)
        << "flip at byte " << pos << ": " << st.ToString();
    EXPECT_EQ(registry.Find("adult"), nullptr);
  }
  for (const size_t cut : {size_t{0}, valid.size() / 2, valid.size() - 1}) {
    write_file(valid.substr(0, cut));
    ModelRegistry registry;
    auto st = registry.Load("adult", file);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument)
        << "truncation to " << cut << ": " << st.ToString();
    EXPECT_EQ(registry.Find("adult"), nullptr);
  }

  // Control: the undamaged bytes load fine.
  write_file(valid);
  ModelRegistry registry;
  EXPECT_TRUE(registry.Load("adult", file).ok());
}

// A parent-conditioned model (a relational child table's, saved through
// the public Save) cannot draw its own conditions: the registry refuses
// it at Load instead of aborting on the first GEN.
TEST(RegistryTest, RejectsParentConditionedModel) {
  Rng rng(41);
  const data::Table train = data::MakeAdultSim(120, &rng);
  synth::GanOptions opts;
  opts.iterations = 3;
  opts.batch_size = 16;
  opts.g_hidden = {16};
  opts.d_hidden = {16};
  opts.noise_dim = 4;
  synth::TableSynthesizer child(opts, {});
  const Matrix parent_rows = Matrix::Randn(train.num_records(), 3, &rng);
  ASSERT_TRUE(child.FitConditioned(train, parent_rows).ok());
  const std::string file = FreshDir("serve_parent_model") + "/child.daisy";
  ASSERT_TRUE(child.Save(file).ok());

  ModelRegistry registry;
  const Status st = registry.Load("child", file);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("parent-conditioned"), std::string::npos)
      << st.message();
  EXPECT_EQ(registry.Find("child"), nullptr);
}

TEST(RegistryTest, RejectsShapeMismatchedCheckpoint) {
  // A checkpoint from a differently-sized network has a valid checksum
  // but wrong matrix shapes; the overlay must reject it untouched.
  const std::string dir = FreshDir("serve_mismatch_ckpt");
  Rng rng(33);
  const data::Table train = data::MakeAdultSim(250, &rng);
  synth::GanOptions opts = FastOptions({16});
  opts.checkpoint_every = 10;
  opts.checkpoint_dir = dir;
  opts.checkpoint_keep = 1;
  synth::TableSynthesizer other(opts, transform::TransformOptions{});
  ASSERT_TRUE(other.Fit(train).ok());

  ModelRegistry registry;
  auto st = registry.Load("adult", TrainedModel().model_path, dir);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("shape mismatch"), std::string::npos)
      << st.ToString();
}

// ---------------------------------------------------------------------
// Engine

// Collects one job's reply stream and flags completion.
struct Reply {
  std::string bytes;
  bool done = false;
  std::mutex m;
  std::condition_variable cv;

  ServeEngine::ChunkSink Sink() {
    return [this](const std::string& chunk, bool is_done) {
      if (is_done) {
        std::lock_guard<std::mutex> lock(m);
        done = true;
        cv.notify_one();
        return;
      }
      bytes += chunk;
    };
  }
  void Await() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done; });
  }
};

struct GenSpec {
  std::string model;
  size_t rows;
  uint64_t seed;
};

// Reply bytes for one job running alone — the determinism baseline.
std::string SoloBytes(const ModelRegistry& registry, const GenSpec& spec) {
  ServeEngine engine(&registry);
  engine.Start();
  Reply reply;
  EXPECT_TRUE(
      engine.SubmitGen(spec.model, spec.rows, spec.seed, reply.Sink()).ok());
  reply.Await();
  engine.Drain();
  return reply.bytes;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.Load("alpha", TrainedModel().model_path).ok());
    ASSERT_TRUE(registry_.Load("beta", TrainedModel().model_path,
                               TrainedModel().checkpoint_dir)
                    .ok());
  }
  ModelRegistry registry_;
};

TEST_F(EngineTest, ConcurrentRequestsMatchSoloBytesAcrossThreadCounts) {
  // A fixed request set, submitted concurrently under different engine
  // batching options and worker thread counts, must produce each job's
  // solo bytes exactly — interleaving, coalescing grouping and decode
  // parallelism are all invisible in the output.
  const std::vector<GenSpec> specs = {
      {"alpha", 45, 1}, {"beta", 17, 2},  {"alpha", 45, 1},
      {"alpha", 0, 3},  {"beta", 120, 4}, {"alpha", 64, 5},
  };
  std::vector<std::string> expected;
  for (const auto& spec : specs) expected.push_back(SoloBytes(registry_, spec));
  EXPECT_EQ(expected[0], expected[2]) << "same spec, same bytes";

  for (const size_t chunk_rows : {size_t{9}, size_t{64}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      par::SetNumThreads(threads);
      ServeEngine::Options opts;
      opts.chunk_rows = chunk_rows;
      opts.max_batch_rows = 3 * chunk_rows;
      ServeEngine engine(&registry_, opts);
      engine.Start();

      std::vector<Reply> replies(specs.size());
      std::vector<std::thread> clients;
      for (size_t i = 0; i < specs.size(); ++i) {
        clients.emplace_back([&, i] {
          ASSERT_TRUE(engine
                          .SubmitGen(specs[i].model, specs[i].rows,
                                     specs[i].seed, replies[i].Sink())
                          .ok());
        });
      }
      for (auto& t : clients) t.join();
      for (auto& r : replies) r.Await();
      engine.Drain();
      par::SetNumThreads(0);

      for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(replies[i].bytes, expected[i])
            << "spec " << i << " chunk_rows " << chunk_rows << " threads "
            << threads;
    }
  }
}

TEST_F(EngineTest, ZeroRowRequestStreamsHeaderOnly) {
  const std::string bytes = SoloBytes(registry_, {"alpha", 0, 9});
  auto loaded = synth::TableSynthesizer::Load(TrainedModel().model_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(bytes, CsvHeader(loaded.value()->schema()));
}

TEST_F(EngineTest, UnknownModelIsNotFound) {
  ServeEngine engine(&registry_);
  engine.Start();
  Reply reply;
  auto st = engine.SubmitGen("nosuch", 5, 1, reply.Sink());
  EXPECT_EQ(st.code(), Status::Code::kNotFound);
  engine.Drain();
  EXPECT_FALSE(reply.done) << "sink must not fire for a rejected job";
}

TEST_F(EngineTest, DrainCompletesQueuedJobsThenRejectsNewOnes) {
  ServeEngine::Options opts;
  opts.chunk_rows = 8;  // many scheduling rounds per job
  ServeEngine engine(&registry_, opts);
  engine.Start();

  std::vector<GenSpec> specs;
  std::vector<Reply> replies(6);
  for (size_t i = 0; i < replies.size(); ++i) {
    specs.push_back({i % 2 == 0 ? "alpha" : "beta", 50 + i, i});
    ASSERT_TRUE(engine
                    .SubmitGen(specs[i].model, specs[i].rows, specs[i].seed,
                               replies[i].Sink())
                    .ok());
  }
  engine.Drain();  // must block until every queued job has finished

  for (size_t i = 0; i < replies.size(); ++i) {
    EXPECT_TRUE(replies[i].done) << "job " << i << " dropped by drain";
    EXPECT_EQ(replies[i].bytes, SoloBytes(registry_, specs[i]));
  }

  Reply late;
  auto st = engine.SubmitGen("alpha", 5, 1, late.Sink());
  EXPECT_EQ(st.code(), Status::Code::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// Socket server end to end

// Minimal blocking client for the line protocol.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  int fd() const { return fd_; }

  void SetReceiveTimeout(int seconds) {
    timeval tv{};
    tv.tv_sec = seconds;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  void Send(const std::string& line) {
    const std::string out = line + "\n";
    ASSERT_EQ(::send(fd_, out.data(), out.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(out.size()));
  }

  // Sends raw bytes, stopping quietly once the peer has closed.
  void SendRaw(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

  // Reads until EOF into `out`; false if `timeout_s` passes with no
  // data first.
  bool ReadToEof(std::string* out, int timeout_s) {
    SetReceiveTimeout(timeout_s);
    char tmp[4096];
    for (;;) {
      const ssize_t n = ::read(fd_, tmp, sizeof(tmp));
      if (n == 0) return true;
      if (n < 0) return false;
      out->append(tmp, static_cast<size_t>(n));
    }
  }

  // Reads until the reply terminator ("END\n", "PONG\n" or an ERR
  // line) or EOF.
  std::string ReadReply() {
    std::string out;
    char tmp[4096];
    while (!Complete(out)) {
      const ssize_t n = ::read(fd_, tmp, sizeof(tmp));
      if (n <= 0) break;
      out.append(tmp, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  static bool Complete(const std::string& out) {
    if (out.empty()) return false;
    if (out.rfind("PONG\n", 0) == 0 || out.rfind("ERR", 0) == 0)
      return out.back() == '\n';
    return out.size() >= 4 && out.compare(out.size() - 4, 4, "END\n") == 0;
  }
  int fd_ = -1;
  bool connected_ = false;
};

class SocketServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.Load("adult", TrainedModel().model_path).ok());
    engine_ = std::make_unique<ServeEngine>(&registry_);
    engine_->Start();
    socket_path_ = ::testing::TempDir() + "daisy_serve_test_" +
                   std::to_string(::getpid()) + ".sock";
    server_ = std::make_unique<SocketServer>(&registry_, engine_.get(),
                                             socket_path_);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override {
    server_->Stop();
    std::remove(socket_path_.c_str());
  }
  // Replaces the server, and the engine its Stop() drained, with one
  // that caps GEN at `max_rows`.
  void RestartWithMaxRows(uint64_t max_rows) {
    server_->Stop();
    engine_ = std::make_unique<ServeEngine>(&registry_);
    engine_->Start();
    server_ = std::make_unique<SocketServer>(&registry_, engine_.get(),
                                             socket_path_, max_rows);
    ASSERT_TRUE(server_->Start().ok());
  }

  ModelRegistry registry_;
  std::unique_ptr<ServeEngine> engine_;
  std::unique_ptr<SocketServer> server_;
  std::string socket_path_;
};

TEST_F(SocketServerTest, AnswersProtocolOverSocket) {
  Client client(socket_path_);
  ASSERT_TRUE(client.connected());
  client.Send("PING");
  EXPECT_EQ(client.ReadReply(), "PONG\n");
  client.Send("LIST");
  EXPECT_EQ(client.ReadReply(), "OK 1\nadult\nEND\n");
  client.Send("GEN nosuch 5 1");
  EXPECT_EQ(client.ReadReply().rfind("ERR", 0), 0u);
  client.Send("GEN adult bogus 1");
  EXPECT_EQ(client.ReadReply().rfind("ERR", 0), 0u);

  client.Send("GEN adult 10 77");
  const std::string reply = client.ReadReply();
  ASSERT_EQ(reply.rfind("OK 10\n", 0), 0u) << reply;
  // Same request on a second connection: byte-identical CSV.
  Client other(socket_path_);
  ASSERT_TRUE(other.connected());
  other.Send("GEN adult 10 77");
  EXPECT_EQ(other.ReadReply(), reply);
}

TEST_F(SocketServerTest, OverlongLineGetsErrThenEof) {
  // 1 MiB with no newline: past the 64 KiB line cap the server must
  // answer one ERR line and close, not buffer the flood.
  Client client(socket_path_);
  ASSERT_TRUE(client.connected());
  std::thread flood([&] { client.SendRaw(std::string(1 << 20, 'x')); });
  std::string reply;
  const bool eof = client.ReadToEof(&reply, 10);
  flood.join();
  EXPECT_TRUE(eof) << "no EOF within the receive timeout";
  EXPECT_EQ(reply, "ERR line too long\n");

  // The server still serves other peers.
  Client other(socket_path_);
  ASSERT_TRUE(other.connected());
  other.Send("PING");
  EXPECT_EQ(other.ReadReply(), "PONG\n");
}

size_t OpenFdCount() {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST_F(SocketServerTest, FinishedConnectionsReleaseFdsAndThreads) {
  // Each ended connection must close its fd and have its thread
  // joined, not hold both until Stop(): after 1000 connect/close
  // cycles the process's fd count is back where it started and the
  // server tracks one thread.
  auto cycle = [&] {
    Client client(socket_path_);
    ASSERT_TRUE(client.connected());
    client.Send("PING");  // the reply proves the server accepted it
    ASSERT_EQ(client.ReadReply(), "PONG\n");
  };
  // A reader closes its fd on its own thread once its peer hangs up.
  auto settled_fds = [](size_t want) {
    for (int ms = 0; ms < 10000 && OpenFdCount() > want; ms += 10)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return OpenFdCount();
  };
  const size_t fds_before = OpenFdCount();
  for (int i = 0; i < 1000; ++i) {
    cycle();
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(settled_fds(fds_before), fds_before);
  // Every reader has ended, so the next accept joins all their
  // threads and only the new connection's is left.
  cycle();
  EXPECT_EQ(settled_fds(fds_before), fds_before);
  EXPECT_EQ(server_->tracked_threads(), 1u);
}

TEST_F(SocketServerTest, GenOverMaxRowsIsRefusedAndConnectionStaysUsable) {
  RestartWithMaxRows(100);
  Client client(socket_path_);
  ASSERT_TRUE(client.connected());
  client.Send("GEN adult 101 5");
  EXPECT_EQ(client.ReadReply(), "ERR rows exceed --max-rows\n");
  client.Send("GEN adult 100 5");
  const std::string reply = client.ReadReply();
  EXPECT_EQ(reply.rfind("OK 100\n", 0), 0u) << reply.substr(0, 80);
  // header + 100 rows + OK + END
  EXPECT_EQ(static_cast<size_t>(
                std::count(reply.begin(), reply.end(), '\n')),
            103u);
  client.Send("PING");
  EXPECT_EQ(client.ReadReply(), "PONG\n");
}

// accept() failing with EMFILE must not end the accept loop. The server
// runs in a forked child under a low RLIMIT_NOFILE; the test floods it
// with connections until its fd table is full, hangs them all up, and
// then a fresh connection must still get its PONG.
TEST(SocketServerFdLimitTest, KeepsAcceptingAfterEmfile) {
  const std::string path = ::testing::TempDir() + "daisy_serve_emfile_" +
                           std::to_string(::getpid()) + ".sock";
  std::remove(path.c_str());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    par::SetNumThreads(1);  // the parent's pool threads are not forked
    ModelRegistry registry;
    ServeEngine engine(&registry);
    engine.Start();
    SocketServer server(&registry, &engine, path);
    if (!server.Start().ok()) ::_exit(2);
    // Room for eight more fds above the lowest free one.
    const int lowest = ::dup(0);
    ::close(lowest);
    rlimit lim{};
    ::getrlimit(RLIMIT_NOFILE, &lim);
    lim.rlim_cur = static_cast<rlim_t>(lowest + 8);
    if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) ::_exit(3);
    server.Wait();
    server.Stop();
    ::_exit(0);
  }
  // Kills the child when a failed assertion ends the test early.
  struct ChildGuard {
    pid_t pid;
    ~ChildGuard() {
      if (pid <= 0) return;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  } guard{child};
  // The child's exit code once it has exited, or -1 if it had to be
  // killed after 10 s.
  auto end_child = [&] {
    int status = 0;
    for (int ms = 0; ms < 10000; ms += 10) {
      if (::waitpid(child, &status, WNOHANG) == child) {
        guard.pid = 0;
        return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;  // the guard kills it
  };
  bool up = false;
  for (int ms = 0; ms < 10000 && !up; ms += 10) {
    up = Client(path).connected();
    if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(up) << "server did not come up";

  // 40 connections against room for 8: the rest wait in the backlog
  // while accept() fails with EMFILE.
  {
    std::vector<std::unique_ptr<Client>> flood;
    for (int i = 0; i < 40; ++i) {
      flood.push_back(std::make_unique<Client>(path));
      ASSERT_TRUE(flood.back()->connected()) << i;
      flood.back()->Send("PING");
    }
    std::vector<pollfd> fds;
    for (const auto& c : flood) fds.push_back({c->fd(), POLLIN, 0});
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const int answered = ::poll(fds.data(), fds.size(), 0);
    EXPECT_GT(answered, 0);
    EXPECT_LT(answered, 40) << "the fd limit never bit";
  }  // every flood connection hangs up here

  Client fresh(path);
  ASSERT_TRUE(fresh.connected());
  fresh.SetReceiveTimeout(10);
  fresh.Send("PING");
  EXPECT_EQ(fresh.ReadReply(), "PONG\n");
  fresh.Send("SHUTDOWN");
  fresh.ReadReply();
  EXPECT_EQ(end_child(), 0);
  std::remove(path.c_str());
}

TEST_F(SocketServerTest, ConcurrentClientsGetDeterministicBytes) {
  const size_t kClients = 4;
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(socket_path_);
      ASSERT_TRUE(client.connected());
      client.Send("GEN adult 40 123");
      replies[i] = client.ReadReply();
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 1; i < kClients; ++i) EXPECT_EQ(replies[i], replies[0]);
  EXPECT_EQ(replies[0].rfind("OK 40\n", 0), 0u);
}

TEST_F(SocketServerTest, ShutdownDrainsInFlightRequests) {
  // One client starts a large GEN; another sends SHUTDOWN while it
  // streams. The GEN client must still receive its complete reply —
  // requests accepted before the shutdown are never dropped.
  Client gen_client(socket_path_);
  ASSERT_TRUE(gen_client.connected());
  gen_client.Send("GEN adult 3000 9");

  Client shutdown_client(socket_path_);
  ASSERT_TRUE(shutdown_client.connected());
  shutdown_client.Send("SHUTDOWN");
  EXPECT_EQ(shutdown_client.ReadReply(), "OK 0\nEND\n");

  const std::string reply = gen_client.ReadReply();
  ASSERT_EQ(reply.rfind("OK 3000\n", 0), 0u);
  ASSERT_GE(reply.size(), 4u);
  EXPECT_EQ(reply.compare(reply.size() - 4, 4, "END\n"), 0);
  // 3000 rows + header + OK + END separated by newlines.
  EXPECT_EQ(static_cast<size_t>(
                std::count(reply.begin(), reply.end(), '\n')),
            3003u);

  server_->Wait();  // SHUTDOWN was requested; Wait must return
  server_->Stop();
}

}  // namespace
}  // namespace daisy::serve
