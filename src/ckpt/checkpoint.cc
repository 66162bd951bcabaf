#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/durable.h"
#include "core/serial.h"

namespace daisy::ckpt {

namespace {

constexpr char kFormatTag[] = "daisy-ckpt-v1";
constexpr char kCkptSuffix[] = ".daisyckpt";

// Caps on container sizes read from disk, far above anything the
// trainers produce but small enough that a corrupt length can't drive
// a pathological allocation before its matrices fail to parse.
constexpr uint64_t kMaxMatrices = 1u << 16;
constexpr uint64_t kMaxSnapshots = 1u << 12;
constexpr uint64_t kMaxBlobs = 1u << 10;
constexpr uint64_t kMaxRngWords = 1u << 16;

void WriteMatrixList(Serializer* out, const char* tag,
                     const std::vector<Matrix>& ms) {
  out->WriteTag(tag);
  out->WriteU64(ms.size());
  for (const Matrix& m : ms) out->WriteMatrix(m);
}

std::vector<Matrix> ReadMatrixList(Deserializer* in, const char* tag) {
  in->ExpectTag(tag);
  const uint64_t n = in->ReadU64();
  if (!in->ok()) return {};
  if (n > kMaxMatrices) {
    in->Fail(std::string("implausible matrix count under tag ") + tag);
    return {};
  }
  std::vector<Matrix> ms;
  ms.reserve(n);
  for (uint64_t i = 0; i < n && in->ok(); ++i) ms.push_back(in->ReadMatrix());
  return ms;
}

void WritePayload(Serializer* out, const TrainCheckpoint& c) {
  out->WriteTag(kFormatTag);
  out->WriteU64(TrainCheckpoint::kVersion);
  out->WriteTag("run");
  out->WriteString(c.run);
  out->WriteU64(c.phase);
  out->WriteU64(c.iter);
  out->WriteU64(c.total_iters);
  out->WriteU64(c.seed);
  out->WriteU64(c.telemetry_records);

  out->WriteTag("rng");
  out->WriteU64(c.rng_state.size());
  for (uint64_t w : c.rng_state) out->WriteU64(w);

  WriteMatrixList(out, "params", c.params);
  WriteMatrixList(out, "buffers", c.buffers);

  out->WriteTag("optimizers");
  out->WriteU64(c.optimizer_state.size());
  for (const std::string& blob : c.optimizer_state) out->WriteString(blob);

  WriteMatrixList(out, "healthy_params", c.healthy_params);
  WriteMatrixList(out, "healthy_buffers", c.healthy_buffers);

  out->WriteTag("traces");
  out->WriteDoubleVector(c.d_losses);
  out->WriteDoubleVector(c.g_losses);

  out->WriteTag("snapshots");
  out->WriteU64(c.snapshots.size());
  for (const auto& snap : c.snapshots) WriteMatrixList(out, "snap", snap);
  out->WriteU64(c.snapshot_iters.size());
  for (uint64_t it : c.snapshot_iters) out->WriteU64(it);

  out->WriteTag("extra");
  out->WriteDoubleVector(c.extra);
  out->WriteTag("end");
}

Result<TrainCheckpoint> ReadPayload(Deserializer* in) {
  TrainCheckpoint c;
  in->ExpectTag(kFormatTag);
  const uint64_t version = in->ReadU64();
  if (in->ok() && version != TrainCheckpoint::kVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(TrainCheckpoint::kVersion) + ")");
  }
  in->ExpectTag("run");
  c.run = in->ReadString();
  c.phase = in->ReadU64();
  c.iter = in->ReadU64();
  c.total_iters = in->ReadU64();
  c.seed = in->ReadU64();
  c.telemetry_records = in->ReadU64();

  in->ExpectTag("rng");
  const uint64_t rng_words = in->ReadU64();
  if (in->ok() && rng_words > kMaxRngWords)
    in->Fail("implausible rng state size");
  for (uint64_t i = 0; i < rng_words && in->ok(); ++i)
    c.rng_state.push_back(in->ReadU64());

  c.params = ReadMatrixList(in, "params");
  c.buffers = ReadMatrixList(in, "buffers");

  in->ExpectTag("optimizers");
  const uint64_t blobs = in->ReadU64();
  if (in->ok() && blobs > kMaxBlobs) in->Fail("implausible optimizer count");
  for (uint64_t i = 0; i < blobs && in->ok(); ++i)
    c.optimizer_state.push_back(in->ReadString());

  c.healthy_params = ReadMatrixList(in, "healthy_params");
  c.healthy_buffers = ReadMatrixList(in, "healthy_buffers");

  in->ExpectTag("traces");
  c.d_losses = in->ReadDoubleVector();
  c.g_losses = in->ReadDoubleVector();

  in->ExpectTag("snapshots");
  const uint64_t snaps = in->ReadU64();
  if (in->ok() && snaps > kMaxSnapshots) in->Fail("implausible snapshot count");
  for (uint64_t i = 0; i < snaps && in->ok(); ++i)
    c.snapshots.push_back(ReadMatrixList(in, "snap"));
  const uint64_t snap_iters = in->ReadU64();
  if (in->ok() && snap_iters > kMaxSnapshots)
    in->Fail("implausible snapshot iter count");
  for (uint64_t i = 0; i < snap_iters && in->ok(); ++i)
    c.snapshot_iters.push_back(in->ReadU64());

  in->ExpectTag("extra");
  c.extra = in->ReadDoubleVector();
  in->ExpectTag("end");

  if (!in->ok())
    return Status::InvalidArgument("malformed checkpoint payload: " +
                                   in->error());
  return c;
}

}  // namespace

std::string SerializeCheckpoint(const TrainCheckpoint& ckpt) {
  std::ostringstream os;
  Serializer out(&os);
  WritePayload(&out, ckpt);
  std::string bytes = os.str();
  AppendChecksumTrailer(&bytes);
  return bytes;
}

Result<TrainCheckpoint> ParseCheckpoint(const std::string& bytes) {
  auto payload_len = VerifyChecksumTrailer(bytes, "checkpoint");
  if (!payload_len.ok()) return payload_len.status();
  std::istringstream is(bytes.substr(0, payload_len.value()));
  Deserializer in(&is);
  return ReadPayload(&in);
}

Status SaveCheckpoint(const TrainCheckpoint& ckpt, const std::string& path) {
  return WriteFileAtomic(path, SerializeCheckpoint(ckpt));
}

Result<TrainCheckpoint> LoadCheckpoint(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  auto parsed = ParseCheckpoint(bytes.value());
  if (!parsed.ok())
    return parsed.status().WithPrefix("checkpoint '" + path + "': ");
  return parsed.take();
}

CheckpointStore::CheckpointStore(std::string dir, size_t keep_last)
    : dir_(std::move(dir)), keep_last_(keep_last == 0 ? 1 : keep_last) {}

std::string CheckpointStore::FileName(uint64_t phase, uint64_t iter) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "ckpt-p%04llu-i%012llu%s",
                static_cast<unsigned long long>(phase),
                static_cast<unsigned long long>(iter), kCkptSuffix);
  return buf;
}

std::vector<std::string> CheckpointStore::ListFiles() const {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    // Skip temp files from in-flight (or crashed) writers.
    if (name.size() < sizeof(kCkptSuffix) - 1 ||
        name.compare(name.size() - (sizeof(kCkptSuffix) - 1),
                     sizeof(kCkptSuffix) - 1, kCkptSuffix) != 0)
      continue;
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

Status CheckpointStore::Save(const TrainCheckpoint& ckpt) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec)
    return Status::IOError("cannot create checkpoint dir '" + dir_ +
                           "': " + ec.message());
  const std::string path =
      (fs::path(dir_) / FileName(ckpt.phase, ckpt.iter)).string();
  Status s = SaveCheckpoint(ckpt, path);
  if (!s.ok()) return s;
  std::vector<std::string> files = ListFiles();
  while (files.size() > keep_last_) {
    std::remove(files.front().c_str());
    files.erase(files.begin());
  }
  return Status::OK();
}

Result<TrainCheckpoint> CheckpointStore::LoadLatest(
    std::string* loaded_from) const {
  std::vector<std::string> files = ListFiles();
  Status first_error =
      Status::NotFound("no checkpoints in '" + dir_ + "'");
  bool have_error = false;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    auto loaded = LoadCheckpoint(*it);
    if (loaded.ok()) {
      if (loaded_from != nullptr) *loaded_from = *it;
      return loaded.take();
    }
    if (!have_error) {
      first_error = loaded.status();
      have_error = true;
    }
  }
  return first_error;
}

Result<TrainCheckpoint> CheckpointStore::LoadLatestWhere(
    const std::function<bool(const TrainCheckpoint&)>& accept) const {
  const std::vector<std::string> files = ListFiles();
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    auto loaded = LoadCheckpoint(*it);
    if (loaded.ok() && accept(loaded.value())) return loaded.take();
  }
  return Status::NotFound("no acceptable checkpoint in '" + dir_ + "'");
}

}  // namespace daisy::ckpt
